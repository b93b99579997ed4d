// Command pcploadgen drives fetch load against the PCP serving tier and
// reports a concurrency sweep: throughput plus p50/p95/p99/p99.9
// latency at each worker count, in open- or closed-loop discipline.
//
// By default it builds a self-contained testbed (a simulated node with a
// live PMCD daemon and a pmproxy in front of it) and sweeps both tiers
// over real TCP connections. Point -target at an address to load an
// externally started daemon or proxy instead.
//
// Sweep latencies are wall-clock round-trip times. For a deterministic,
// diffable run use -spec: it runs a declarative workload model (see
// internal/workload) — cohorts, rate curves, diurnal patterns and
// heavy-tailed request mixes expand into a deterministic request
// stream, executed in virtual time by default (millions of clients,
// seconds of wall clock, bit-identical across runs) or against a real
// tier with -live. The run can be recorded to a compact trace with
// -record and replayed bit-exact with -replay.
//
// With -tenant N every connection identifies itself in-band as that
// tenant (protocol Version3), so a QoS-enabled pmproxy applies the
// tenant's quota; with -tenants "gold=1,guest=2" one concurrent stream
// runs per tenant and the report breaks out each tenant's ops, errors,
// sheds and latency quantiles — the two-tenant overload experiment in
// one command.
//
// Usage:
//
//	pcploadgen [-target both|daemon|proxy|ADDR] [-mode closed|open]
//	           [-sweep 1,2,4,8] [-ops 200] [-rate 50000]
//	           [-pipeline N] [-batch B] [-tenant N | -tenants name=id,...]
//	pcploadgen -spec FILE [-mult M] [-record FILE | -replay FILE]
//	           [-live [-target ADDR] [-workers N]]
//
// Example live open-loop sweep and deterministic workload runs:
//
//	pcploadgen -target daemon -mode open -rate 20000 -sweep 1,4 -ops 100
//	pcploadgen -spec examples/workload-specs/capacity.yaml
//	pcploadgen -spec examples/workload-specs/diurnal.yaml -mult 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"papimc/internal/arch"
	"papimc/internal/loadgen"
	"papimc/internal/node"
)

func main() {
	target := flag.String("target", "both", "daemon | proxy | both (self-hosted testbed), or a host:port to load externally")
	machine := flag.String("machine", "summit", "summit | tellico (self-hosted testbed)")
	mode := flag.String("mode", "closed", "closed | open")
	sweepFlag := flag.String("sweep", "1,2,4,8", "comma-separated worker counts")
	ops := flag.Int("ops", 200, "requests per worker (0 = run for -duration)")
	duration := flag.Duration("duration", time.Second, "wall deadline when -ops is 0")
	rate := flag.Float64("rate", 50_000, "open-loop total arrival rate, requests/second")
	numPMIDs := flag.Int("pmids", 8, "number of metrics each request fetches")
	pipeline := flag.Int("pipeline", 0, "share N pipelined connections across all workers (0 = one lockstep-style connection per worker)")
	batch := flag.Int("batch", 1, "PMID sets per request: >1 bundles them into one FetchBatch round trip")
	specPath := flag.String("spec", "", "workload spec file: run the workload model instead of a sweep")
	mult := flag.Float64("mult", 0, "workload rate multiplier (0 = spec's own, or the replayed trace's)")
	record := flag.String("record", "", "write the workload run's request trace to this file")
	replay := flag.String("replay", "", "replay a recorded trace instead of generating arrivals")
	live := flag.Bool("live", false, "execute the workload against a real tier in wall-clock time")
	workers := flag.Int("workers", 32, "live-mode executor connections")
	tenant := flag.Uint64("tenant", 0, "tag every connection with this tenant ID (0 = default tenant)")
	tenants := flag.String("tenants", "", "multi-tenant run: comma-separated name=id streams (e.g. gold=1,guest=2), one concurrent stream each")
	flag.Parse()

	if *specPath != "" || *replay != "" {
		workloadMain(*specPath, *replay, *record, *mult, *live, *target, *machine, *workers)
		return
	}

	sweep, err := parseSweep(*sweepFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcploadgen:", err)
		os.Exit(2)
	}
	opts := loadgen.Options{
		Ops:      *ops,
		Duration: *duration,
		Rate:     *rate,
		PMIDs:    pmidSet(*numPMIDs),
		Batch:    *batch,
	}
	switch *mode {
	case "closed":
		opts.Mode = loadgen.Closed
	case "open":
		opts.Mode = loadgen.Open
	default:
		fmt.Fprintf(os.Stderr, "pcploadgen: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	// Resolve targets: self-hosted testbed tiers or an external address.
	type tier struct {
		name string
		addr string
	}
	var tiers []tier
	switch *target {
	case "daemon", "proxy", "both":
		m := arch.Summit()
		if strings.EqualFold(*machine, "tellico") {
			m = arch.Tellico()
		}
		tb, err := node.NewTestbed(m, 1, node.Options{DisableNoise: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcploadgen:", err)
			os.Exit(1)
		}
		defer tb.Close()
		if *target != "proxy" {
			tiers = append(tiers, tier{"daemon", tb.PMCDAddr})
		}
		if *target != "daemon" {
			_, addr, err := tb.StartProxy()
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcploadgen:", err)
				os.Exit(1)
			}
			tiers = append(tiers, tier{"proxy", addr})
		}
	default:
		tiers = append(tiers, tier{*target, *target})
	}

	if (*tenant != 0 || *tenants != "") && *pipeline > 0 {
		fmt.Fprintln(os.Stderr, "pcploadgen: -tenant/-tenants use one tagged connection per worker and cannot combine with -pipeline")
		os.Exit(2)
	}

	for _, tr := range tiers {
		fmt.Printf("target=%s addr=%s mode=%s pmids=%d", tr.name, tr.addr, *mode, *numPMIDs)
		if *pipeline > 0 {
			fmt.Printf(" pipeline=%d", *pipeline)
		}
		if *batch > 1 {
			fmt.Printf(" batch=%d", *batch)
		}
		if *tenant != 0 {
			fmt.Printf(" tenant=%d", *tenant)
		}
		fmt.Println()
		if *tenants != "" {
			// Multi-tenant overload shape: one concurrent stream per
			// tenant at the first sweep entry's worker count, reported
			// per tenant (ops, errors, sheds, latency quantiles).
			loads, err := parseTenants(*tenants, tr.addr, opts, sweep[0])
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcploadgen:", err)
				os.Exit(2)
			}
			results, err := loadgen.RunTenants(loads)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcploadgen:", err)
				os.Exit(1)
			}
			fmt.Print(loadgen.TenantReport(results))
			fmt.Println()
			continue
		}
		factory := loadgen.DialFactory(tr.addr)
		if *pipeline > 0 {
			factory = loadgen.PipelinedFactory(tr.addr, *pipeline)
		}
		if *tenant != 0 {
			factory = loadgen.DialTenantFactory(tr.addr, uint32(*tenant))
		}
		results, err := loadgen.Sweep(factory, sweep, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcploadgen:", err)
			os.Exit(1)
		}
		fmt.Print(loadgen.Report(results))
		fmt.Println()
	}
}

// parseTenants expands "gold=1,guest=2" into one TenantLoad per stream,
// each running the shared options at the given worker count.
func parseTenants(spec, addr string, opts loadgen.Options, workers int) ([]loadgen.TenantLoad, error) {
	var loads []loadgen.TenantLoad
	opts.Workers = workers
	for _, part := range strings.Split(spec, ",") {
		name, idStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tenants entry %q (want name=id)", part)
		}
		id, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad tenant id in -tenants entry %q: %v", part, err)
		}
		loads = append(loads, loadgen.TenantLoad{
			Name:    name,
			Tenant:  uint32(id),
			Factory: loadgen.DialTenantFactory(addr, uint32(id)),
			Opts:    opts,
		})
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("empty -tenants")
	}
	return loads, nil
}

func parseSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad worker count %q in -sweep", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -sweep")
	}
	return out, nil
}

func pmidSet(n int) []uint32 {
	if n <= 0 {
		n = 1
	}
	pmids := make([]uint32, n)
	for i := range pmids {
		pmids[i] = uint32(i + 1)
	}
	return pmids
}
