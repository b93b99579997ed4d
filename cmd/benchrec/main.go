// Command benchrec measures the headline hot-path benchmarks in-process
// (via testing.Benchmark) and records the optimization trajectory as
// JSON: the seed-tree baseline next to the current tree's numbers, with
// the speedup and allocation-reduction factors computed. CI runs it so
// every build leaves a machine-readable performance record.
//
// Usage:
//
//	benchrec [-out BENCH_4.json] [-benchtime 1s]
//	benchrec -cluster [-out BENCH_5.json]
//	benchrec -capacity [-out BENCH_6.json]
//	benchrec -wire [-out BENCH_7.json]
//	benchrec -archive [-out BENCH_8.json]
//
// With -cluster it instead records federated root-query latency versus
// node count (the scatter-gather tree from internal/cluster), writing
// BENCH_5.json by default. With -capacity it records the workload
// capacity sweep's knee point and the virtual-time engine's
// million-client simulation rate (internal/workload), writing
// BENCH_6.json by default. With -wire it records proxied fetch
// throughput over real TCP, lockstep Version1 versus the pipelined
// Version3 wire path (tagged PDUs, shared connections, batched sets),
// writing BENCH_7.json by default. With -archive it records the archive
// tier at production scale: fixed-width query latency as the raw tier
// grows 1x/32x/1000x, the avg_over rollup-pushdown speedup, and
// range-read tail latency under a concurrently folding compactor,
// writing BENCH_8.json by default.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"papimc/internal/arch"
	"papimc/internal/cache"
	"papimc/internal/mem"
	"papimc/internal/node"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
	"papimc/internal/trace"
)

// Metric is one benchmark measurement.
type Metric struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Entry pairs a benchmark's recorded baseline with a fresh measurement.
type Entry struct {
	Name       string  `json:"name"`
	Before     *Metric `json:"before,omitempty"` // seed tree (commit b757ce5), absent for new benchmarks
	After      Metric  `json:"after"`
	Speedup    float64 `json:"speedup,omitempty"`           // before.ns / after.ns
	AllocsX    float64 `json:"alloc_reduction,omitempty"`   // before.allocs / after.allocs, when after still allocates
	Eliminated bool    `json:"allocs_eliminated,omitempty"` // allocations dropped to zero
}

// baselines are the seed tree's numbers for the same benchmark bodies,
// measured on the pre-optimization code (single-CPU container, Go
// defaults). They are recorded constants, not re-measured, so the
// trajectory survives the code they measured being gone.
var baselines = map[string]Metric{
	"mem/Read":                {NsPerOp: 665, BytesPerOp: 128, AllocsPerOp: 1},
	"mem/ReadInto":            {NsPerOp: 665, BytesPerOp: 128, AllocsPerOp: 1}, // seed tree had only the allocating Read
	"mem/Totals":              {NsPerOp: 650, BytesPerOp: 128, AllocsPerOp: 1},
	"mem/AddTraffic":          {NsPerOp: 757, BytesPerOp: 1308, AllocsPerOp: 2},
	"cache/SimAccess":         {NsPerOp: 63.4, BytesPerOp: 0, AllocsPerOp: 0},
	"papi/EventSetReadDirect": {NsPerOp: 904, BytesPerOp: 1312, AllocsPerOp: 16},
	"papi/EventSetReadPCP":    {NsPerOp: 14042, BytesPerOp: 3104, AllocsPerOp: 32},
	"pcp/FetchRespRoundTrip":  {NsPerOp: 1162, BytesPerOp: 1512, AllocsPerOp: 12},
	"pmproxy/FetchCoalesced":  {NsPerOp: 10923, BytesPerOp: 1288, AllocsPerOp: 26},
}

// ConcEntry is one concurrency measurement: the same benchmark body at a
// given GOMAXPROCS, against the recorded mutex-serialized baseline.
type ConcEntry struct {
	Name    string  `json:"name"`
	Procs   int     `json:"gomaxprocs"`
	Before  *Metric `json:"before,omitempty"` // mutex-serialized tree (commit e516959)
	After   Metric  `json:"after"`
	Speedup float64 `json:"speedup,omitempty"`
}

// concBaselines are the mutex-serialized tree's numbers for the same
// benchmark bodies, keyed by "name@gomaxprocs". Recorded on this
// single-core container: note how the mutex paths get SLOWER as
// GOMAXPROCS rises (contention overhead with no parallelism to win).
var concBaselines = map[string]Metric{
	"pcp/ParallelFetchInto@1":      {NsPerOp: 57.0},
	"pcp/ParallelFetchInto@8":      {NsPerOp: 81.5},
	"pcp/FetchRoundTripTCP@1":      {NsPerOp: 13317},
	"pcp/ParallelDaemonTCP@1":      {NsPerOp: 10360},
	"pcp/ParallelDaemonTCP@8":      {NsPerOp: 9716},
	"pmproxy/ParallelProxyFetch@1": {NsPerOp: 111.0},
	"pmproxy/ParallelProxyFetch@8": {NsPerOp: 129.9},
}

func main() {
	out := flag.String("out", "", "output file (default BENCH_4.json; BENCH_5.json with -cluster, BENCH_6.json with -capacity, BENCH_7.json with -wire)")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark measuring time")
	clusterRec := flag.Bool("cluster", false, "record federated root-query latency vs node count instead")
	capacityRec := flag.Bool("capacity", false, "record the workload capacity knee and simulation rate instead")
	capacitySpec := flag.String("capacity-spec", "examples/workload-specs/capacity.yaml", "spec swept for the -capacity knee")
	simSpec := flag.String("sim-spec", "examples/workload-specs/diurnal.yaml", "spec timed for the -capacity simulation rate")
	wireRec := flag.Bool("wire", false, "record lockstep vs pipelined wire-path throughput instead")
	wireDuration := flag.Duration("wire-duration", 1500*time.Millisecond, "per-run measuring time with -wire")
	archiveRec := flag.Bool("archive", false, "record archive query latency vs size, rollup pushdown, and compaction-concurrent reads instead")
	archiveDuration := flag.Duration("archive-duration", 2*time.Second, "compaction-concurrent measuring time with -archive")
	flag.Parse()
	if *out == "" {
		switch {
		case *clusterRec:
			*out = "BENCH_5.json"
		case *capacityRec:
			*out = "BENCH_6.json"
		case *wireRec:
			*out = "BENCH_7.json"
		case *archiveRec:
			*out = "BENCH_8.json"
		default:
			*out = "BENCH_4.json"
		}
	}
	if *capacityRec {
		capacityMain(*out, *capacitySpec, *simSpec)
		return
	}
	if *wireRec {
		wireMain(*out, *wireDuration)
		return
	}
	if *archiveRec {
		archiveMain(*out, *archiveDuration)
		return
	}
	// testing.Benchmark consults the test.benchtime flag, which only
	// exists after testing.Init registers it.
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *clusterRec {
		clusterMain(*out)
		return
	}

	benchmarks := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"mem/Read", benchMemRead},
		{"mem/ReadInto", benchMemReadInto},
		{"mem/Totals", benchMemTotals},
		{"mem/AddTraffic", benchMemAddTraffic},
		{"cache/SimAccess", benchCacheAccess},
		{"papi/EventSetReadDirect", func(b *testing.B) { benchEventSetRead(b, node.Direct) }},
		{"papi/EventSetReadPCP", func(b *testing.B) { benchEventSetRead(b, node.ViaPCP) }},
		{"pcp/FetchRespRoundTrip", benchFetchRespRoundTrip},
		{"pmproxy/FetchCoalesced", benchProxyFetch},
	}

	report := struct {
		Note            string      `json:"note"`
		Entries         []Entry     `json:"entries"`
		ConcurrencyNote string      `json:"concurrency_note"`
		Concurrency     []ConcEntry `json:"concurrency"`
	}{
		Note: "hot-path benchmark trajectory; 'before' is the pre-optimization tree (commit b757ce5)",
		ConcurrencyNote: "serving-tier concurrency; 'before' is the mutex-serialized tree (commit e516959). " +
			"Baselines were recorded on a single-core container, where parallel speedup cannot appear " +
			"as wall-clock gain: the lock-free win shows as contention elimination instead — the mutex " +
			"tree degrades as GOMAXPROCS rises while snapshot publication stays flat. On multicore " +
			"hardware the same benchmarks (-bench Parallel -cpu 1,2,4,8) scale with cores.",
	}
	for _, bm := range benchmarks {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		e := Entry{Name: bm.name, After: Metric{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}}
		if base, ok := baselines[bm.name]; ok {
			b := base
			e.Before = &b
			if e.After.NsPerOp > 0 {
				e.Speedup = round2(b.NsPerOp / e.After.NsPerOp)
			}
			if e.After.AllocsPerOp > 0 {
				e.AllocsX = round2(float64(b.AllocsPerOp) / float64(e.After.AllocsPerOp))
			} else if b.AllocsPerOp > 0 {
				e.Eliminated = true
			}
		}
		report.Entries = append(report.Entries, e)
		fmt.Printf("%-26s %10.1f ns/op %8d B/op %4d allocs/op", bm.name, e.After.NsPerOp, e.After.BytesPerOp, e.After.AllocsPerOp)
		if e.Before != nil {
			fmt.Printf("   (was %.1f ns, %d allocs)", e.Before.NsPerOp, e.Before.AllocsPerOp)
		}
		fmt.Println()
	}

	// Concurrency section: the same serving-path bodies at GOMAXPROCS 1
	// and 8, so the record shows how throughput behaves as goroutines are
	// added (see ConcurrencyNote on reading these on a single-core host).
	concurrency := []struct {
		name  string
		procs []int
		fn    func(*testing.B)
	}{
		{"pcp/ParallelFetchInto", []int{1, 8}, benchParallelFetchInto},
		{"pcp/FetchRoundTripTCP", []int{1}, benchFetchRoundTripTCP},
		{"pcp/ParallelDaemonTCP", []int{1, 8}, benchParallelDaemonTCP},
		{"pmproxy/ParallelProxyFetch", []int{1, 8}, benchParallelProxyFetch},
	}
	for _, bm := range concurrency {
		for _, procs := range bm.procs {
			prev := runtime.GOMAXPROCS(procs)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				bm.fn(b)
			})
			runtime.GOMAXPROCS(prev)
			e := ConcEntry{Name: bm.name, Procs: procs, After: Metric{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}}
			if base, ok := concBaselines[fmt.Sprintf("%s@%d", bm.name, procs)]; ok {
				b := base
				e.Before = &b
				if e.After.NsPerOp > 0 {
					e.Speedup = round2(b.NsPerOp / e.After.NsPerOp)
				}
			}
			report.Concurrency = append(report.Concurrency, e)
			fmt.Printf("%-26s @%d %7.1f ns/op %8d B/op %4d allocs/op", bm.name, procs, e.After.NsPerOp, e.After.BytesPerOp, e.After.AllocsPerOp)
			if e.Before != nil {
				fmt.Printf("   (was %.1f ns)", e.Before.NsPerOp)
			}
			fmt.Println()
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

func noisyController(seed uint64) *mem.Controller {
	return mem.NewController(mem.Config{Channels: 8, Noise: arch.Summit().Noise, Seed: seed}, simtime.NewClock())
}

func benchMemRead(b *testing.B) {
	c := noisyController(1)
	t := simtime.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Add(100 * simtime.Microsecond)
		c.AddTraffic(true, int64(i)*64, 1<<16, t, t)
		c.Read(t)
	}
}

// benchMemReadInto is the steady-state counter-snapshot path the nest
// PMU actually runs: the snapshot buffer is reused across reads.
func benchMemReadInto(b *testing.B) {
	c := noisyController(1)
	t := simtime.Time(0)
	var dst []mem.ChannelCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Add(100 * simtime.Microsecond)
		c.AddTraffic(true, int64(i)*64, 1<<16, t, t)
		dst = c.ReadInto(t, dst)
	}
}

func benchMemTotals(b *testing.B) {
	c := noisyController(2)
	t := simtime.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Add(100 * simtime.Microsecond)
		c.AddTraffic(false, int64(i)*64, 1<<16, t, t)
		c.Totals(t)
	}
}

func benchMemAddTraffic(b *testing.B) {
	c := mem.NewController(mem.Config{Channels: 8, DisableNoise: true}, simtime.NewClock())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddTraffic(true, int64(i)*64, 1<<16, 0, 0)
	}
	b.StopTimer()
	c.Totals(0)
}

type nullMem struct{}

func (nullMem) MemRead(addr, bytes int64)  {}
func (nullMem) MemWrite(addr, bytes int64) {}

func benchCacheAccess(b *testing.B) {
	h := cache.New(cache.Config{Socket: arch.Summit().Socket, ActiveCores: []int{0}}, nullMem{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, trace.Access{Addr: int64(i%1000000) * 8, Size: 8, Kind: trace.Load})
	}
}

func benchEventSetRead(b *testing.B, route node.Route) {
	tb, err := node.NewTestbed(arch.Tellico(), 1, node.Options{DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	lib, _, err := tb.NewLibrary()
	if err != nil {
		b.Fatal(err)
	}
	es := lib.NewEventSet()
	if err := es.AddAll(tb.NestEventNames(route)...); err != nil {
		b.Fatal(err)
	}
	if err := es.Start(); err != nil {
		b.Fatal(err)
	}
	defer es.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := es.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFetchRespRoundTrip(b *testing.B) {
	res := pcp.FetchResult{Timestamp: 123456789}
	for i := 0; i < 16; i++ {
		res.Values = append(res.Values, pcp.FetchValue{PMID: uint32(i + 1), Status: pcp.StatusOK, Value: uint64(i) << 32})
	}
	var buf []byte
	var dec pcp.FetchResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = pcp.AppendFetchResp(buf[:0], res)
		if err := pcp.DecodeFetchRespInto(buf, &dec); err != nil {
			b.Fatal(err)
		}
	}
}

// servingDaemon builds a daemon over synthetic metrics so the
// concurrency benchmarks measure the serving path, not the counter
// model. Mirrors the bodies in internal/pcp and internal/pmproxy's
// bench_test files, which CI also runs at -cpu 1,4.
func servingDaemon(b *testing.B) *pcp.Daemon {
	ms := make([]pcp.Metric, 16)
	for i := range ms {
		v := uint64(i) * 64
		ms[i] = pcp.Metric{
			Name: fmt.Sprintf("bench.metric.%02d", i),
			Read: func(simtime.Time) (uint64, error) { return v, nil },
		}
	}
	d, err := pcp.NewDaemon(simtime.NewClock(), 10*simtime.Millisecond, ms)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

var servingPMIDs = []uint32{1, 2, 3, 4, 5, 6, 7, 8}

func benchParallelFetchInto(b *testing.B) {
	d := servingDaemon(b)
	b.RunParallel(func(pb *testing.PB) {
		var vals []pcp.FetchValue
		for pb.Next() {
			res := d.FetchInto(servingPMIDs, vals[:0])
			vals = res.Values
		}
	})
}

func benchFetchRoundTripTCP(b *testing.B) {
	d := servingDaemon(b)
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c, err := pcp.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var res pcp.FetchResult
	if err := c.FetchInto(servingPMIDs, &res); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.FetchInto(servingPMIDs, &res); err != nil {
			b.Fatal(err)
		}
	}
}

func benchParallelDaemonTCP(b *testing.B) {
	d := servingDaemon(b)
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.RunParallel(func(pb *testing.PB) {
		c, err := pcp.Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		var res pcp.FetchResult
		for pb.Next() {
			if err := c.FetchInto(servingPMIDs, &res); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func benchParallelProxyFetch(b *testing.B) {
	d := servingDaemon(b)
	upstream, err := d.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	p := pmproxy.New(pmproxy.Config{
		Upstream: upstream,
		Clock:    simtime.NewClock(),
		Interval: 10 * simtime.Millisecond,
	})
	defer p.Close()
	if _, err := p.Fetch(servingPMIDs); err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := p.Fetch(servingPMIDs); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func benchProxyFetch(b *testing.B) {
	tb, err := node.NewTestbed(arch.Tellico(), 1, node.Options{DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	p := pmproxy.New(pmproxy.Config{
		Upstream: tb.PMCDAddr,
		Clock:    tb.Clock,
		Interval: tb.Machine.Noise.PMCDSampleInterval,
	})
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	c, err := pcp.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	pmids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := c.Fetch(pmids); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fetch(pmids); err != nil {
			b.Fatal(err)
		}
	}
}
