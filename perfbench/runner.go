package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"papimc/internal/pcp"
)

// A run builds its stack setupBuilds times; setup_s is the median of
// the builds' process CPU time, and the last build is the one measured.
// CPU time, because on a shared host a build's wall time doubled while
// other tenants were busy and its CPU time moved by a tenth. Each build
// starts after a collection, so it does not pay for the garbage of the
// build before it. The count is fixed because the live heap a run
// measures grows slightly with the number of stacks built before it.
const setupBuilds = 51

// warmup runs the loop before measuring, so connections, caches and
// lazily built state are in place.
const warmup = 500 * time.Millisecond

// spec describes one workload.
type spec struct {
	name      string
	exercises []string
	bypasses  []string
	loaders   int // closed-loop goroutines
	main      int // loaders [0, main) issue the ops; the rest are writers
	conns     int // client connections the loaders hold
	setup     func(seed uint64, traced bool, in inputs) (instance, error)
}

// instance is one built stack under test.
type instance interface {
	// op runs one closed-loop operation on loader i and records it in l.
	op(i int, l *loader)
	// setTrace turns span recording on or off between phases.
	setTrace(on bool)
	// tracers returns the loaders' tracers (traced builds only).
	tracers() []*tracer
	// layers measures the per-layer metrics of a traced build into m,
	// given an untraced and a traced phase, and returns the waterfall:
	// the op's latency split by layer.
	layers(untraced, traced *phase, m map[string]float64) ([]part, error)
	close() error
}

// part is one layer's share of a waterfall, in ns.
type part struct {
	name string
	ns   float64
}

// loader is one closed-loop caller's record of a phase.
type loader struct {
	lat    []int64 // ns per completed op
	failed int
	// n counts the ops run, for the phase's per-window CPU samples.
	n atomic.Int64
	// done is closed once the phase's main loaders have stopped, so a
	// writer waiting on their progress can return.
	done <-chan struct{}
	// check is time spent verifying answers; throughput excludes it.
	check    time.Duration
	firstErr error
}

func (l *loader) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// phase is one measured stretch of closed-loop operation.
type phase struct {
	wall       time.Duration
	loaders    []*loader
	main       int
	mem0, mem1 memSnap
	// heap holds the live heap after each collection during the phase,
	// the loaders' latency buffers excluded.
	heap []int64
	// cpuPerOp holds the process CPU time per op run, in ns, over each
	// whole cpuEvery window of the phase.
	cpuPerOp []float64
}

// run drives every loader of inst in a closed loop for d, with room
// for bufCap latencies per loader.
func run(inst instance, sp spec, d time.Duration, bufCap int) *phase {
	p := &phase{main: sp.main}
	for range sp.loaders {
		p.loaders = append(p.loaders, &loader{lat: make([]int64, 0, bufCap)})
	}
	bufBytes := int64(8 * bufCap * sp.loaders)
	var wg, mainWg sync.WaitGroup
	mainDone := make(chan struct{})
	p.mem0 = readMem()
	start := time.Now()
	for i := range sp.loaders {
		wg.Add(1)
		if i < sp.main {
			mainWg.Add(1)
		}
		l := p.loaders[i]
		l.done = mainDone
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				inst.op(i, l)
				l.n.Add(1)
			}
			if i < sp.main {
				mainWg.Done()
			}
		}()
	}
	go func() {
		mainWg.Wait()
		close(mainDone)
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(heapEvery)
	defer tick.Stop()
	cpuTick := time.NewTicker(cpuEvery)
	defer cpuTick.Stop()
	cpu0, n0 := p.mem0.cpu, int64(0)
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		case <-tick.C:
			if live, cycles := heapLive(); cycles > p.mem0.cycles {
				p.heap = append(p.heap, live-bufBytes)
			}
		case <-cpuTick.C:
			cpu, n := cpuTime(), int64(0)
			for _, l := range p.loaders {
				n += l.n.Load()
			}
			if n > n0 {
				p.cpuPerOp = append(p.cpuPerOp, float64(cpu-cpu0)/float64(n-n0))
			}
			cpu0, n0 = cpu, n
		}
	}
	p.wall = time.Since(start)
	if len(p.heap) == 0 { // no collection ran during the phase
		runtime.GC()
		live, _ := heapLive()
		p.heap = append(p.heap, live-bufBytes)
	}
	p.mem1 = readMem()
	if len(p.cpuPerOp) == 0 { // shorter than one window
		p.cpuPerOp = append(p.cpuPerOp, float64(p.mem1.cpu-p.mem0.cpu)/float64(p.attempted()))
	}
	return p
}

// heapEvery is how often a phase samples the live heap, and cpuEvery
// how often it samples the process CPU time.
const (
	heapEvery = 20 * time.Millisecond
	cpuEvery  = time.Second
)

// opsPerSec is the main loaders' summed completion rate, each over the
// time it spent outside self-checks.
func (p *phase) opsPerSec() float64 {
	var r float64
	for _, l := range p.loaders[:p.main] {
		r += float64(len(l.lat)) / (p.wall - l.check).Seconds()
	}
	return r
}

// writeOpsPerSec is opsPerSec for the writer loaders.
func (p *phase) writeOpsPerSec() float64 {
	var r float64
	for _, l := range p.loaders[p.main:] {
		r += float64(len(l.lat)) / (p.wall - l.check).Seconds()
	}
	return r
}

func collect(ls []*loader) []int64 {
	var out []int64
	for _, l := range ls {
		out = append(out, l.lat...)
	}
	return out
}

// mainLat and writeLat return copies of the latencies.
func (p *phase) mainLat() []int64  { return collect(p.loaders[:p.main]) }
func (p *phase) writeLat() []int64 { return collect(p.loaders[p.main:]) }

// ops counts the main ops completed.
func (p *phase) ops() int {
	n := 0
	for _, l := range p.loaders[:p.main] {
		n += len(l.lat)
	}
	return n
}

// attempted counts every op of every loader, failed ones included.
func (p *phase) attempted() int {
	n := 0
	for _, l := range p.loaders {
		n += len(l.lat) + l.failed
	}
	return n
}

func (p *phase) failed() int {
	n := 0
	for _, l := range p.loaders {
		n += l.failed
	}
	return n
}

// firstErr returns the first failure any loader saw.
func (p *phase) firstErr() error {
	for _, l := range p.loaders {
		if l.firstErr != nil {
			return l.firstErr
		}
	}
	return nil
}

// capHint sizes each loader's latency buffer for a phase of d from a
// warm-up phase, so recording does not allocate while measuring.
func capHint(w *phase, d time.Duration) int {
	most := 0
	for _, l := range w.loaders {
		most = max(most, len(l.lat)+l.failed)
	}
	return int(float64(most)*d.Seconds()/w.wall.Seconds()*1.5) + 1024
}

// probe calls fn in batches of batch for about d and returns the median
// batch time per call in ns.
func probe(d time.Duration, batch int, fn func() error) (float64, error) {
	var per []int64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < d {
		t0 := nowNs()
		for range batch {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, nowNs()-t0)
	}
	return median(per) / float64(batch), nil
}

// probeTime is how long each standalone per-layer probe runs.
const probeTime = 150 * time.Millisecond

// codecProbe times encoding and decoding one fetch answer of this
// workload's shape: what the daemon and client do per round trip.
func codecProbe(m map[string]float64, res pcp.FetchResult) error {
	var buf []byte
	var dec pcp.FetchResult
	ns, err := probe(probeTime, 256, func() error {
		buf = pcp.AppendFetchResp(buf[:0], res)
		return pcp.DecodeFetchRespInto(buf, &dec)
	})
	m["pcp.codec_ns"] = ns
	return err
}

// outcome is everything one benchmark run reports.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64 // reported in the final line
	info              map[string]float64 // printed before it
	waterfall         []part
	tracePath         string
}

// execute builds the workload's stack (repeatedly, to time it), warms it
// up and measures it for seconds, untraced or traced.
func execute(sp spec, seed uint64, seconds float64, traced bool, traceDir string) (*outcome, error) {
	in := genInputs(seed, sp.conns, proxyPMIDs)
	var inst instance
	var setups []int64
	for {
		runtime.GC()
		c0 := cpuTime()
		st, err := sp.setup(seed, traced, in)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", sp.name, err)
		}
		setups = append(setups, int64(cpuTime()-c0))
		if len(setups) == setupBuilds {
			inst = st
			break
		}
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("tearing down %s: %w", sp.name, err)
		}
	}
	defer inst.close()

	w := run(inst, sp, warmup, 1024)
	if w.ops() == 0 {
		return nil, fmt.Errorf("%s: no op completed during warm-up: %v", sp.name, w.firstErr())
	}
	d := time.Duration(seconds * float64(time.Second))
	out := &outcome{metrics: map[string]float64{}, info: map[string]float64{}}
	if !traced {
		p := run(inst, sp, d, capHint(w, d))
		out.attempted, out.failed, out.firstErr = p.attempted(), p.failed(), p.firstErr()
		if p.ops() == 0 {
			return nil, fmt.Errorf("%s: no op completed: %v", sp.name, p.firstErr())
		}
		lat := summarize(p.mainLat())
		n := float64(p.attempted())
		m := out.metrics
		m["setup_s"] = median(setups) / 1e9
		out.info["ops_per_s"] = p.opsPerSec()
		out.info["latency_p50_us"] = float64(lat.p50) / 1e3
		m["cpu_us_per_op"] = median(p.cpuPerOp) / 1e3
		m["allocs_per_op"] = float64(p.mem1.mallocs-p.mem0.mallocs) / n
		m["bytes_per_op"] = float64(p.mem1.bytes-p.mem0.bytes) / n
		m["heap_live_mb"] = median(p.heap) / 1e6
		out.info["error_rate"] = float64(p.failed()) / n
		tailInfo(out.info, lat)
		if sp.loaders > sp.main {
			wl := summarize(p.writeLat())
			out.info["write_ops_per_s"] = p.writeOpsPerSec()
			out.info["write_latency_p50_us"] = float64(wl.p50) / 1e3
		}
		return out, nil
	}

	half := d / 2
	hint := capHint(w, half)
	u := run(inst, sp, half, hint)
	inst.setTrace(true)
	t := run(inst, sp, half, hint)
	inst.setTrace(false)
	out.attempted = u.attempted() + t.attempted()
	out.failed = u.failed() + t.failed()
	out.firstErr = u.firstErr()
	if out.firstErr == nil {
		out.firstErr = t.firstErr()
	}
	if u.ops() == 0 || t.ops() == 0 {
		return nil, fmt.Errorf("%s: no op completed: %v", sp.name, out.firstErr)
	}
	m := out.metrics
	wf, err := inst.layers(u, t, m)
	if err != nil {
		return nil, fmt.Errorf("%s: per-layer probes: %w", sp.name, err)
	}
	lat := summarize(u.mainLat())
	tailInfo(m, lat)
	m["runtime.gc_per_kop"] = float64(u.mem1.numGC-u.mem0.numGC) / float64(u.attempted()) * 1000
	m["error_rate"] = float64(out.failed) / float64(out.attempted)
	m["trace.overhead_pct"] = (u.opsPerSec() - t.opsPerSec()) / u.opsPerSec() * 100
	var sum float64
	for _, p := range wf {
		sum += p.ns
	}
	m["waterfall.residual_pct"] = (sum - float64(lat.p50)) / float64(lat.p50) * 100
	out.waterfall = append(wf, part{"untraced latency_p50", float64(lat.p50)})
	if trs := inst.tracers(); len(trs) > 0 {
		path, err := writeTrace(traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed), trs)
		if err != nil {
			return nil, err
		}
		out.tracePath = path
	}
	return out, nil
}

// tailInfo records the tail percentiles of lat under the tail rule.
func tailInfo(m map[string]float64, lat latencySummary) {
	m["tail.latency_p99_us"] = float64(lat.p99) / 1e3
	m["tail.samples"] = float64(lat.n)
	if lat.topOK {
		m["tail.latency_top_us"] = float64(lat.top) / 1e3
		m["tail.top_percentile"] = tailLadder[lat.topIdx].pct
	}
}
