package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"papimc/internal/arch"
	"papimc/internal/loadgen"
	"papimc/internal/node"
	"papimc/internal/pcp"
)

// wireGOMAXPROCS is the fixed parallelism the wire record is measured
// at, so the numbers are comparable across hosts with different core
// counts (on a single-core container the 8 Ps time-slice; the win being
// measured is syscall and round-trip amortization, not parallelism).
const wireGOMAXPROCS = 8

// WireRun is one open-loop run against the proxied tier.
type WireRun struct {
	Config     string  `json:"config"` // "lockstep" | "pipelined"
	Workers    int     `json:"workers"`
	Conns      int     `json:"conns,omitempty"` // shared pipelined connections
	Batch      int     `json:"batch"`
	Offered    float64 `json:"offered_sets_per_sec"`
	Throughput float64 `json:"throughput_sets_per_sec"`
	Ops        int64   `json:"ops"`
	Errors     int64   `json:"errors"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// wireMain records the wire-path overhaul's headline number
// (BENCH_7.json): proxied fetch throughput, lockstep Version1
// (connection-per-worker, one request in flight each) versus the
// pipelined Version3 path (tagged PDUs, shared connections, batched
// sets), plus a latency pair at equal offered load showing the
// pipelined path's tail is no worse where the lockstep tier can still
// keep up.
func wireMain(out string, duration time.Duration) {
	prev := runtime.GOMAXPROCS(wireGOMAXPROCS)
	defer runtime.GOMAXPROCS(prev)

	tb, err := node.NewTestbed(arch.Summit(), 1, node.Options{DisableNoise: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tb.Close()
	_, addr, err := tb.StartProxy()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	pmids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	lockstep := func() loadgen.Factory {
		return func() (loadgen.Fetcher, func() error, error) {
			c, err := pcp.DialMax(addr, pcp.Version1)
			if err != nil {
				return nil, nil, err
			}
			return c, c.Close, nil
		}
	}

	run := func(config string, f loadgen.Factory, workers, conns, batch int, rate float64) WireRun {
		res, err := loadgen.Run(f, loadgen.Options{
			Mode:     loadgen.Open,
			Workers:  workers,
			PMIDs:    pmids,
			Duration: duration,
			Rate:     rate,
			Batch:    batch,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w := WireRun{
			Config: config, Workers: workers, Conns: conns, Batch: batch,
			Offered: rate, Throughput: res.Throughput,
			Ops: res.Ops, Errors: res.Errors,
			P50Ms: float64(res.P50.Microseconds()) / 1e3,
			P99Ms: float64(res.P99.Microseconds()) / 1e3,
		}
		fmt.Printf("%-9s workers=%-3d conns=%-2d batch=%-3d offered=%9.0f/s  throughput=%9.0f/s  p50=%7.2fms p99=%7.2fms errs=%d\n",
			config, workers, conns, batch, rate, w.Throughput, w.P50Ms, w.P99Ms, w.Errors)
		return w
	}

	// median3 reruns a saturation measurement three times and keeps the
	// median-throughput run: capacity numbers on a shared host jitter by
	// 2x run to run, and a single sample would make the recorded speedup
	// a coin flip.
	median3 := func(f func() WireRun) WireRun {
		runs := []WireRun{f(), f(), f()}
		sort.Slice(runs, func(i, j int) bool { return runs[i].Throughput < runs[j].Throughput })
		return runs[1]
	}

	// Saturation: offered load far past capacity, so the measured
	// throughput is what the tier sustains. Latency here is backlog, not
	// service time — the latency comparison is the equal-load pair below.
	fmt.Printf("wire-path saturation (GOMAXPROCS=%d, open loop, %v per run, median of 3)\n", wireGOMAXPROCS, duration)
	satLock := median3(func() WireRun { return run("lockstep", lockstep(), 16, 0, 1, 4e6) })
	satPipe := median3(func() WireRun {
		return run("pipelined", loadgen.PipelinedFactory(addr, 4), 256, 4, 256, 8e6)
	})
	speedup := 0.0
	if satLock.Throughput > 0 {
		speedup = round2(satPipe.Throughput / satLock.Throughput)
	}
	fmt.Printf("speedup: %.2fx\n\n", speedup)

	// Equal offered load, set at 75% of the measured lockstep capacity:
	// both configs keep up, so percentiles measure service + queueing at
	// a load the lockstep tier can actually carry. The pipelined side
	// uses a load-appropriate small batch — the claim is "no worse tail
	// at equal load", not "saturation batching is free".
	eqRate := 0.75 * satLock.Throughput
	fmt.Printf("equal offered load (%.0f sets/s)\n", eqRate)
	eqLock := run("lockstep", lockstep(), 16, 0, 1, eqRate)
	eqPipe := run("pipelined", loadgen.PipelinedFactory(addr, 2), 16, 2, 4, eqRate)
	p99Ratio := 0.0
	if eqLock.P99Ms > 0 {
		p99Ratio = round2(eqPipe.P99Ms / eqLock.P99Ms)
	}
	fmt.Printf("p99 ratio (pipelined/lockstep): %.2f\n", p99Ratio)

	report := struct {
		Note       string    `json:"note"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		Saturation []WireRun `json:"saturation"`
		Speedup    float64   `json:"speedup"`
		EqualLoad  []WireRun `json:"equal_load"`
		P99Ratio   float64   `json:"p99_ratio"`
	}{
		Note: "proxied fetch wire path, lockstep Version1 vs pipelined Version3 (tagged PDUs, " +
			"shared connections, batched sets, vectored writes): open-loop throughput at saturation, " +
			"then a latency pair at equal offered load (75% of lockstep capacity). Throughput and " +
			"offered rates count fetched PMID sets per second.",
		GOMAXPROCS: wireGOMAXPROCS,
		Saturation: []WireRun{satLock, satPipe},
		Speedup:    speedup,
		EqualLoad:  []WireRun{eqLock, eqPipe},
		P99Ratio:   p99Ratio,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
}
