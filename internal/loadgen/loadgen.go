// Package loadgen drives fetch load against a PCP serving tier (a live
// PMCD daemon or a pmproxy) and reports throughput and latency
// percentiles from log-bucketed histograms.
//
// Two generation disciplines are supported:
//
//   - Closed loop: W workers issue requests back-to-back. Throughput is
//     what the tier sustains at that concurrency; latency excludes
//     queueing the generator itself created.
//   - Open loop: requests arrive at a fixed rate regardless of how fast
//     responses come back. Latency is measured from the scheduled
//     arrival, so a tier that can't keep up shows coordinated-omission-
//     free queueing delay in its tail percentiles.
//
// Each worker records into its own histogram; histograms are merged
// after the run, so percentile counts are exact with no recording
// contention.
//
// Latencies are wall-clock round trips. The deterministic, diffable
// counterpart is the workload engine's virtual-time SimTarget
// (internal/workload, pcploadgen -spec, pmcap); this package is the
// wall-clock executor only.
package loadgen

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/stats"
)

// ErrRate rejects a zero open-loop rate or a negative rate in any mode,
// typed so callers can match it with errors.Is.
var ErrRate = errors.New("loadgen: rate must be positive")

// Mode selects the load-generation discipline.
type Mode int

const (
	// Closed loop: each worker issues the next request as soon as the
	// previous one completes.
	Closed Mode = iota
	// Open loop: requests are scheduled at a fixed arrival rate and
	// latency is measured from the scheduled arrival time.
	Open
)

func (m Mode) String() string {
	if m == Open {
		return "open"
	}
	return "closed"
}

// Fetcher is one load-generation connection to the target tier.
type Fetcher interface {
	Fetch(pmids []uint32) (pcp.FetchResult, error)
}

// BatchFetcher is the optional batching side of a Fetcher. When
// Options.Batch > 1 the generator requires it and issues one FetchBatch
// round trip per Batch sets. *pcp.Client, *pcp.Daemon, *pmproxy.Proxy,
// and *cluster.Federator all implement it.
type BatchFetcher interface {
	FetchBatch(sets [][]uint32) ([]pcp.FetchResult, error)
}

// FetchFunc adapts a function to the Fetcher interface (for in-process
// targets like *pcp.Daemon or *pmproxy.Proxy).
type FetchFunc func(pmids []uint32) (pcp.FetchResult, error)

// Fetch implements Fetcher.
func (f FetchFunc) Fetch(pmids []uint32) (pcp.FetchResult, error) { return f(pmids) }

// Factory builds one Fetcher per worker, plus its cleanup. Workers get
// independent connections so the generator exercises real fan-out.
type Factory func() (Fetcher, func() error, error)

// DialFactory dials a PCP-protocol address (daemon or proxy) once per
// worker.
func DialFactory(addr string) Factory {
	return func() (Fetcher, func() error, error) {
		c, err := pcp.Dial(addr)
		if err != nil {
			return nil, nil, err
		}
		return c, c.Close, nil
	}
}

// DialTenantFactory is DialFactory with each worker connection
// identifying itself as the given tenant (carried in-band on Version3
// wires; silently absent against older peers). It is how a multi-tenant
// load run addresses a QoS-enabled pmproxy.
func DialTenantFactory(addr string, tenant uint32) Factory {
	return func() (Fetcher, func() error, error) {
		c, err := pcp.DialTenant(addr, tenant)
		if err != nil {
			return nil, nil, err
		}
		return c, c.Close, nil
	}
}

// SharedFactory serves every worker from one in-process Fetcher (the
// target must be safe for concurrent use, as Daemon and Proxy are).
func SharedFactory(f Fetcher) Factory {
	return func() (Fetcher, func() error, error) {
		return f, func() error { return nil }, nil
	}
}

// PipelinedFactory shares conns pipelined connections across all
// workers, round-robin, so many workers keep requests in flight on few
// sockets — the pipelined wire path's intended shape (DialFactory's
// socket-per-worker measures lockstep fan-out instead). Connections are
// dialed on demand and refcounted: the last worker's cleanup closes
// them, so the same Factory value is reusable across Sweep levels.
func PipelinedFactory(addr string, conns int) Factory {
	if conns <= 0 {
		conns = 1
	}
	var (
		mu      sync.Mutex
		clients []*pcp.Client
		refs    int
		next    int
	)
	return func() (Fetcher, func() error, error) {
		mu.Lock()
		defer mu.Unlock()
		var c *pcp.Client
		if len(clients) < conns {
			cc, err := pcp.Dial(addr)
			if err != nil {
				return nil, nil, err
			}
			clients = append(clients, cc)
			c = cc
		} else {
			c = clients[next%len(clients)]
			next++
		}
		refs++
		cleanup := func() error {
			mu.Lock()
			defer mu.Unlock()
			if refs--; refs > 0 {
				return nil
			}
			var err error
			for _, cl := range clients {
				if e := cl.Close(); e != nil && err == nil {
					err = e
				}
			}
			clients, next = nil, 0
			return err
		}
		return c, cleanup, nil
	}
}

// Options configures one load-generation run.
type Options struct {
	Mode    Mode
	Workers int      // concurrent workers; 0 means 1
	PMIDs   []uint32 // pmid set each request fetches; nil means {1}
	// Ops is the per-worker request count. It may be 0, in which case
	// workers run until Duration elapses.
	Ops int
	// Duration bounds a run when Ops is 0; 0 means one second.
	Duration time.Duration
	// Rate is the total open-loop arrival rate in fetched sets/second,
	// split evenly across workers. Required when Mode is Open; must not
	// be negative in any mode. With Batch > 1 the request rate is
	// Rate/Batch, so the offered per-set load stays comparable across
	// batch factors.
	Rate float64
	// Batch, when > 1, bundles that many copies of PMIDs into one
	// FetchBatch round trip per request. The fetchers must implement
	// BatchFetcher. Ops still counts requests per worker; reported ops
	// and throughput count fetched sets; a failed request counts one
	// error.
	Batch int
}

// Result is one run's report.
type Result struct {
	Mode    Mode
	Workers int
	Ops     int64
	Errors  int64
	// Shed counts requests the tier rejected with a typed overload
	// status (admission control), kept apart from Errors: a shed is the
	// tier working as configured, an error is the tier failing.
	Shed       int64
	Elapsed    time.Duration
	Throughput float64 // ops per second
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	P999       time.Duration
	Max        time.Duration
}

// workerOut is one worker's private accumulation, merged after the run.
type workerOut struct {
	hist      stats.Histogram
	ops, errs int64
	shed      int64
	err       error
}

// countFailure classifies one failed request: typed overload rejections
// (pmproxy admission sheds, travelling as pcp.StatusOverload over the
// wire or wrapping pcp.ErrOverload in process) count as sheds, anything
// else as an error.
func (o *workerOut) countFailure(err error) {
	if errors.Is(err, pcp.ErrOverload) {
		o.shed++
	} else {
		o.errs++
	}
}

// Run executes one load-generation run at o.Workers concurrency.
func Run(f Factory, o Options) (Result, error) {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if len(o.PMIDs) == 0 {
		o.PMIDs = []uint32{1}
	}
	if o.Rate < 0 || (o.Mode == Open && o.Rate <= 0) {
		return Result{}, fmt.Errorf("%w: got %g in %s loop", ErrRate, o.Rate, o.Mode)
	}
	if o.Ops <= 0 && o.Duration <= 0 {
		o.Duration = time.Second
	}

	outs := make([]workerOut, o.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			fet, cleanup, err := f()
			if err != nil {
				out.err = err
				return
			}
			defer cleanup()
			runWorker(fet, o, start, out)
		}(w)
	}
	wg.Wait()

	res := Result{Mode: o.Mode, Workers: o.Workers}
	var hist stats.Histogram
	for i := range outs {
		if outs[i].err != nil {
			return Result{}, fmt.Errorf("loadgen: worker %d: %w", i, outs[i].err)
		}
		res.Ops += outs[i].ops
		res.Errors += outs[i].errs
		res.Shed += outs[i].shed
		hist.Merge(&outs[i].hist)
	}
	res.Elapsed = time.Since(start)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Throughput = float64(res.Ops) / s
	}
	res.P50 = time.Duration(hist.Quantile(0.50))
	res.P95 = time.Duration(hist.Quantile(0.95))
	res.P99 = time.Duration(hist.Quantile(0.99))
	res.P999 = time.Duration(hist.Quantile(0.999))
	res.Max = time.Duration(hist.Max())
	return res, nil
}

// fetchOp resolves one worker's per-request operation: a single fetch,
// or — when Options.Batch > 1 — one FetchBatch round trip carrying
// Batch copies of the PMID set. Returns the operation and the number of
// sets each request fetches.
func fetchOp(fet Fetcher, o Options) (func() error, int, error) {
	if o.Batch <= 1 {
		return func() error {
			_, err := fet.Fetch(o.PMIDs)
			return err
		}, 1, nil
	}
	bf, ok := fet.(BatchFetcher)
	if !ok {
		return nil, 0, fmt.Errorf("loadgen: Batch=%d but fetcher %T does not implement BatchFetcher", o.Batch, fet)
	}
	sets := make([][]uint32, o.Batch)
	for i := range sets {
		sets[i] = o.PMIDs
	}
	return func() error {
		out, err := bf.FetchBatch(sets)
		if err != nil {
			return err
		}
		if len(out) != len(sets) {
			return fmt.Errorf("loadgen: batch returned %d sets, want %d", len(out), len(sets))
		}
		return nil
	}, o.Batch, nil
}

// runWorker measures wall-clock round trips until the op count or
// deadline is reached.
func runWorker(fet Fetcher, o Options, start time.Time, out *workerOut) {
	op, per, err := fetchOp(fet, o)
	if err != nil {
		out.err = err
		return
	}
	var interArrival time.Duration
	if o.Mode == Open {
		interArrival = time.Duration(float64(o.Workers*per) / o.Rate * 1e9)
	}
	deadline := start.Add(o.Duration)
	for i := 0; ; i++ {
		if o.Ops > 0 && i >= o.Ops {
			return
		}
		if o.Ops <= 0 && !time.Now().Before(deadline) {
			return
		}
		var ref time.Time
		if o.Mode == Open {
			// Latency is measured from the scheduled arrival, so falling
			// behind shows up as queueing delay (no coordinated omission).
			ref = start.Add(time.Duration(i) * interArrival)
			if d := time.Until(ref); d > 0 {
				time.Sleep(d)
			}
		} else {
			ref = time.Now()
		}
		if err := op(); err != nil {
			out.countFailure(err)
			continue
		}
		out.hist.Record(time.Since(ref).Nanoseconds())
		out.ops += int64(per)
	}
}

// Sweep runs Run once per concurrency level.
func Sweep(f Factory, workers []int, o Options) ([]Result, error) {
	results := make([]Result, 0, len(workers))
	for _, w := range workers {
		o.Workers = w
		r, err := Run(f, o)
		if err != nil {
			return nil, fmt.Errorf("loadgen: workers=%d: %w", w, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// Report renders a sweep as an aligned text table.
func Report(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %5s %9s %6s %6s %12s %9s %9s %9s %9s %9s\n",
		"workers", "mode", "ops", "errs", "sheds", "throughput", "p50", "p95", "p99", "p99.9", "max")
	for _, r := range results {
		fmt.Fprintf(&b, "%7d %5s %9d %6d %6d %9.0f/s %9s %9s %9s %9s %9s\n",
			r.Workers, r.Mode, r.Ops, r.Errors, r.Shed, r.Throughput,
			fmtDur(r.P50), fmtDur(r.P95), fmtDur(r.P99), fmtDur(r.P999), fmtDur(r.Max))
	}
	return b.String()
}

// fmtDur renders a latency with three significant figures, stable across
// magnitudes (time.Duration.String is too chatty for table cells).
func fmtDur(d time.Duration) string {
	ns := float64(d.Nanoseconds())
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
