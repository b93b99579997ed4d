package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"papimc/internal/arch"
	"papimc/internal/archive"
	"papimc/internal/metricql"
	"papimc/internal/model"
	"papimc/internal/nest"
	"papimc/internal/node"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// The archive workload records one Summit socket's 16 nest metrics
// once a virtual second, like pmlogger. Raw rows are kept for
// archRetention and then folded into the default 10s and 5m tiers; each
// tier keeps archMaxBuckets buckets, so the archive reaches a steady
// size early in a run instead of growing with it. Reads land in the
// newest readZone of the archive, far from the rows the compactor folds.
const (
	archInterval   = simtime.Second
	archRetention  = int64(60 * 60 * simtime.Second)
	archPreload    = 65 * 60 // rows: past retention, and both tiers
	archMaxBuckets = 1024
	readZone       = int64(35 * 60 * simtime.Second)
	compactEvery   = 50 * time.Millisecond
	ledgerRows     = 8192 // appended rows remembered for the self-checks
	// The writer appends one sample per read, writeBatch at a time; a
	// reader writeSlack batches ahead drops its tokens rather than wait.
	// A free-running writer made the mix of cheap appends and costly
	// reads, and with it every per-op figure, follow the scheduler from
	// run to run.
	writeBatch = 16
	writeSlack = 64
)

var archiveSpec = spec{
	name:      "archive-record-query",
	exercises: []string{"archive append", "archive rollups", "archive compactor", "archive queries", "metricql pushdown", "pcp daemon (in process)", "nest", "mem"},
	bypasses:  []string{"papi", "pcp client", "pcp wire", "pmproxy", "cluster"},
	loaders:   2,
	main:      1,
	setup:     setupArchive,
}

// archMetric is one of the 16 recorded metrics.
type archMetric struct {
	alias string // the metricql nest alias a user would query
	pmid  uint32
	col   int // archive column
}

// archiveBench appends one daemon sample per virtual interval on loader
// 1 while loader 0 runs seeded window queries and raw range reads.
type archiveBench struct {
	clock   *simtime.Clock
	node    *node.Node
	daemon  *pcp.Daemon
	arch    *archive.Archive
	stop    func()
	aliases map[string]string
	metrics []archMetric
	ledger  *ledger

	traf []traffic // writer only
	next int
	wins []window // reader only
	win  int
	// paced carries one token per writeBatch reads to the writer.
	paced chan struct{}

	// Reader-side counts: reads verified against raw rows, and reads
	// whose rows were folded away before they could be.
	checked, unchecked int
	windows, pushed    int

	rtr, wtr *tracer
	rem      *remote
	statsAt  archive.Stats
}

func setupArchive(seed uint64, traced bool, in inputs) (instance, error) {
	m := arch.Summit()
	clock := simtime.NewClock()
	b := &archiveBench{clock: clock, traf: in.Traffic, wins: in.Windows, paced: make(chan struct{}, writeSlack)}
	// Noise-free counters: the memory model synthesizes background noise
	// per virtual millisecond, which at a 1s cadence would swamp the
	// archive in every write.
	b.node = node.New(m, clock, node.Options{Seed: seed, DisableNoise: true}, 0)
	pmu := b.node.PMUs[0]
	metrics := pcp.NestMetrics(b.node.PMUs[:1], nest.RootCredential())
	if traced {
		b.rem = &remote{}
		b.rtr = newTracer(nil)
		b.wtr = newTracer(b.rem)
		metrics = timedMetrics(metrics, b.rem)
	}
	d, err := pcp.NewDaemon(clock, archInterval, metrics)
	if err != nil {
		return nil, err
	}
	b.daemon = d
	names := d.Names()
	b.ledger = newLedger(len(names))
	b.arch, err = archive.New(names, archive.Options{RawRetention: archRetention, MaxBuckets: archMaxBuckets})
	if err != nil {
		return nil, err
	}
	b.aliases = metricql.NestAliases(names)
	for _, ev := range pmu.Events() {
		raw := pcp.NestMetricName(pmu, ev)
		dir := "read"
		if ev.Write {
			dir = "write"
		}
		am := archMetric{alias: fmt.Sprintf("nest.mba%d.%s_bytes", ev.Channel, dir), col: -1}
		for i, n := range names {
			if n.Name == raw {
				am.pmid, am.col = n.PMID, i
			}
		}
		if am.col < 0 || b.aliases[am.alias] != raw {
			return nil, fmt.Errorf("archive-record-query: no metric %s (alias %s)", raw, am.alias)
		}
		b.metrics = append(b.metrics, am)
	}
	for range archPreload {
		if _, err := b.write(); err != nil {
			return nil, err
		}
	}
	b.stop = b.arch.StartCompactor(compactEvery)
	return b, nil
}

// write posts the next seeded traffic over one interval (advancing the
// clock past it), samples the daemon and appends the sample. It returns
// the time spent in the daemon fetch and the append.
func (b *archiveBench) write() (int64, error) {
	t := b.traf[b.next%len(b.traf)]
	b.next++
	b.node.Play(0, model.Traffic{ReadBytes: t.ReadBytes, WriteBytes: t.WriteBytes, Duration: archInterval}, t.Steps)
	traced := b.wtr != nil && b.wtr.on
	t0 := nowNs()
	if traced {
		b.wtr.beginOp(lWrite)
		b.wtr.begin(lFetchAll)
	}
	res := b.daemon.FetchAll()
	if traced {
		b.wtr.end()
		b.wtr.begin(lAppend)
	}
	err := b.arch.Append(res)
	if traced {
		b.wtr.end()
		b.wtr.endOp()
	}
	lat := nowNs() - t0
	if err != nil {
		return 0, err
	}
	if now := int64(b.clock.Now()); res.Timestamp != now {
		return 0, fmt.Errorf("archive-record-query: daemon sample at %d, clock at %d", res.Timestamp, now)
	}
	b.ledger.put(res)
	return lat, nil
}

func (b *archiveBench) op(i int, l *loader) {
	if i == 1 {
		if b.next%writeBatch == 0 {
			select {
			case <-b.paced:
			case <-l.done:
				return
			}
		}
		lat, err := b.write()
		if err != nil {
			l.fail(err)
			return
		}
		l.lat = append(l.lat, lat)
		return
	}
	w := b.wins[b.win%len(b.wins)]
	b.win++
	if b.win%writeBatch == 0 {
		select {
		case b.paced <- struct{}{}:
		default: // the writer is writeSlack batches behind
		}
	}
	var lat int64
	var err error
	checkStart := int64(0)
	if w.Fn == fnSamples {
		lat, checkStart, err = b.rawRange(w)
	} else {
		lat, checkStart, err = b.query(w)
	}
	if err != nil {
		l.fail(err)
		return
	}
	l.check += time.Duration(nowNs() - checkStart)
	l.lat = append(l.lat, lat)
}

// placeWindow picks the end of a window of length n at seeded position
// pos of the read zone, leaving room before the window for one bucket
// of resolution res (0: raw). An aligned end sits on a bucket boundary,
// an unaligned one between two.
func (b *archiveBench) placeWindow(n int64, res archive.Resolution, aligned bool, pos float64) (int64, error) {
	_, last, ok := b.arch.Span()
	if !ok {
		return 0, archive.ErrEmpty
	}
	step, r := int64(archInterval), int64(res)
	if r == 0 {
		r = step
	}
	lo := last - readZone + n + r + step
	if lo > last {
		return 0, fmt.Errorf("archive-record-query: a %v window does not fit the read zone", simtime.Duration(n))
	}
	t1 := alignDown(lo+int64(pos*float64(last-lo)), step)
	if aligned {
		if t1 = alignDown(t1, r); t1 < lo {
			t1 += r
		}
	} else if t1%r == 0 && r > step {
		t1 -= step
	}
	return t1, nil
}

// query runs one seeded metricql window query the way a one-shot
// pmquery over the archive does: a replay pinned at the window's end,
// a fresh engine, one evaluation. It returns the latency and when the
// self-check began.
func (b *archiveBench) query(w window) (int64, int64, error) {
	am := b.metrics[w.Metric]
	_, last, _ := b.arch.Span()
	t1, err := b.placeWindow(w.Len, b.arch.SelectResolution(last-w.Len, last), w.Aligned, w.Pos)
	if err != nil {
		return 0, 0, err
	}
	expr := fmt.Sprintf("%s(%s, %ds)", w.Fn, am.alias, w.Len/int64(simtime.Second))
	traced := b.rtr != nil && b.rtr.on

	t0 := nowNs()
	if traced {
		b.rtr.beginOp(lQuery)
	}
	clk := simtime.NewClock()
	clk.AdvanceTo(simtime.Time(t1))
	replay := archive.NewReplay(b.arch, clk)
	var src metricql.Source = replay
	if traced {
		src = timedReplay{r: replay, tr: b.rtr, windows: &b.windows, pushed: &b.pushed}
	}
	eng := metricql.NewEngine(src)
	eng.AliasAll(b.aliases)
	var v metricql.Value
	q, err := eng.Query(expr)
	if err == nil {
		v, err = q.Eval()
	}
	if traced {
		b.rtr.endOp()
	}
	lat := nowNs() - t0
	checkStart := nowNs()
	if err != nil {
		return 0, 0, fmt.Errorf("archive-record-query: %s: %w", expr, err)
	}
	got, err := v.Scalar()
	if err != nil {
		return 0, 0, err
	}
	if ts, _ := eng.LastTimestamp(); ts != t1 {
		if b.folded(t1) {
			b.unchecked++ // the row at t1 left raw before the replay read it
			return lat, checkStart, nil
		}
		return 0, 0, fmt.Errorf("archive-record-query: %s evaluated at %d, want %d", expr, ts, t1)
	}
	checked, err := b.checkWindow(w.Fn, am.col, t1-w.Len, t1, got)
	if err != nil {
		return 0, 0, fmt.Errorf("archive-record-query: %s at %d: %w", expr, t1, err)
	}
	if checked {
		b.checked++
	} else {
		b.unchecked++
	}
	return lat, checkStart, nil
}

// checkWindow recomputes a window answer over [t0, t1) from the raw
// rows the writer appended (kept in the ledger, so the check neither
// allocates nor depends on the archive's own raw tier). On a window
// whose edges sit on the boundaries of the tier the archive reads, and
// on every raw-tier window, the answer must match bit for bit; avg_over
// is recomputed in the archive's summation order, per bucket then
// across buckets, because float sums of large counters are not
// associative and a flat sum of the same rows may differ in the last
// bits. Otherwise the answer must stay within one edge bucket per side
// (DESIGN §15): a rate within one bucket's counter increase per edge,
// an average within the values of the rows of the buckets it touches.
// checked is false when the ledger no longer holds the rows.
func (b *archiveBench) checkWindow(fn string, col int, t0, t1 int64, got float64) (checked bool, err error) {
	res := b.arch.SelectResolution(t0, t1)
	step := int64(archInterval)
	r, raw := int64(res), res == archive.ResRaw
	if raw {
		r = step
	}
	// Rows k cover ts = k*step; the check reads rows [klo, khi].
	klo, khi := alignDown(t0, r)/step-1, (alignDown(t1, r)+r)/step+1
	khi = min(khi, b.ledger.high.Load())
	if !b.ledger.holds(klo, t1/step) {
		return false, nil
	}
	defer func() {
		if !b.ledger.holds(klo, t1/step) {
			checked, err = false, nil // overwritten while reading
		}
	}()
	g, secs := b.ledger, float64(t1-t0)/1e9
	if raw || (t0%r == 0 && t1%r == 0) {
		var want float64
		switch fn {
		case fnAvgOver:
			var total, bucket float64
			cur := int64(math.MinInt64)
			for k := t0 / step; k < t1/step; k++ {
				if start := alignDown(k*step, r); !raw && start != cur {
					total += bucket
					bucket, cur = 0, start
				}
				bucket += float64(g.at(k, col))
			}
			want = (total + bucket) / float64((t1-t0)/step)
		case fnRateOver:
			var delta float64
			for k := t0/step + 1; k <= t1/step; k++ {
				delta += float64(int64(pcp.CounterDelta(g.at(k-1, col), g.at(k, col))))
			}
			want = delta / secs
		}
		if got != want {
			return true, fmt.Errorf("%s on an aligned %v window = %v, raw rows give %v", fn, archive.Resolution(r), got, want)
		}
		return true, nil
	}
	switch fn {
	case fnAvgOver:
		mn, mx := math.Inf(1), math.Inf(-1)
		for k := alignDown(t0, r) / step; k < (alignDown(t1-1, r)+r)/step && k <= khi; k++ {
			v := float64(g.at(k, col))
			mn, mx = math.Min(mn, v), math.Max(mx, v)
		}
		if tol := 1e-9 * math.Abs(mx); got < mn-tol || got > mx+tol {
			return true, fmt.Errorf("avg_over = %v outside [%v, %v], the rows of the buckets it touches", got, mn, mx)
		}
	case fnRateOver:
		// Every row lies on the cadence grid and so do the window's
		// edges: the raw increase is the plain sum of steps inside.
		var want, bound float64
		for k := t0/step + 1; k <= t1/step; k++ {
			want += float64(pcp.CounterDelta(g.at(k-1, col), g.at(k, col)))
		}
		// One bucket's increase per edge, with the steps into and out of it.
		for _, start := range []int64{alignDown(t0, r), alignDown(t1, r)} {
			for k := start / step; k <= (start+r)/step+1 && k <= khi; k++ {
				bound += float64(pcp.CounterDelta(g.at(k-1, col), g.at(k, col)))
			}
		}
		if diff := math.Abs(got*secs - want); diff > bound+1e-9*want+1 {
			return true, fmt.Errorf("rate_over increase %v vs raw %v: off by %v, bound %v", got*secs, want, diff, bound)
		}
	}
	return true, nil
}

// rawRange reads a seeded raw range and checks it row by row: contiguous
// at the recording cadence, and each row the sample that was appended.
func (b *archiveBench) rawRange(w window) (int64, int64, error) {
	t1, err := b.placeWindow(w.Len, archive.ResRaw, true, w.Pos)
	if err != nil {
		return 0, 0, err
	}
	t0 := t1 - w.Len
	traced := b.rtr != nil && b.rtr.on
	start := nowNs()
	if traced {
		b.rtr.beginOp(lRawRange)
	}
	rows, err := b.arch.Samples(t0, t1)
	if traced {
		b.rtr.endOp()
	}
	lat := nowNs() - start
	checkStart := nowNs()
	if err != nil {
		return 0, 0, err
	}
	step := int64(archInterval)
	if want := int((t1-t0)/step) + 1; len(rows) != want {
		if b.folded(t0) {
			b.unchecked++ // rows left raw between placing the range and reading it
			return lat, checkStart, nil
		}
		return 0, 0, fmt.Errorf("archive-record-query: raw range [%d, %d] has %d rows, want %d", t0, t1, len(rows), want)
	}
	if !b.ledger.holds(t0/step, t1/step) {
		b.unchecked++
		return lat, checkStart, nil
	}
	for i, row := range rows {
		k := t0/step + int64(i)
		if row.Timestamp != k*step || len(row.Values) != len(b.metrics) {
			return 0, 0, fmt.Errorf("archive-record-query: raw row %d at %d with %d values, want %d with %d", i, row.Timestamp, len(row.Values), k*step, len(b.metrics))
		}
		for c, v := range row.Values {
			if want := b.ledger.at(k, c); v != want {
				return 0, 0, fmt.Errorf("archive-record-query: raw row at %d column %d = %d, appended %d", row.Timestamp, c, v, want)
			}
		}
	}
	if !b.ledger.holds(t0/step, t1/step) {
		b.unchecked++ // overwritten while reading
		return lat, checkStart, nil
	}
	b.checked++
	return lat, checkStart, nil
}

// folded reports whether raw rows at or after ts have been folded out
// of the raw tier. The writer runs far ahead in virtual time, so a
// reader descheduled for a few tens of milliseconds can find the rows
// it placed a read on folded; that read is then not checkable.
func (b *archiveBench) folded(ts int64) bool {
	first, _, ok := b.arch.Span()
	return !ok || first > ts
}

func alignDown(ts, r int64) int64 {
	q := ts / r
	if ts%r < 0 {
		q--
	}
	return q * r
}

// ledger keeps the values of the last ledgerRows samples the writer
// appended, indexed by row k = timestamp / archInterval, so the reader
// can check answers against what was written without locking out the
// writer or allocating.
type ledger struct {
	width int
	vals  []atomic.Uint64 // row k at (k % ledgerRows) * width
	high  atomic.Int64    // newest row written
}

func newLedger(width int) *ledger {
	return &ledger{width: width, vals: make([]atomic.Uint64, ledgerRows*width)}
}

func (g *ledger) put(res pcp.FetchResult) {
	k := res.Timestamp / int64(archInterval)
	base := int(k%ledgerRows) * g.width
	for i, v := range res.Values {
		g.vals[base+i].Store(v.Value)
	}
	g.high.Store(k)
}

// holds reports whether rows lo..hi are written and not being
// overwritten: the writer fills row k+ledgerRows, over row k, only
// after publishing row k+ledgerRows-1.
func (g *ledger) holds(lo, hi int64) bool {
	h := g.high.Load()
	return hi <= h && lo > h-ledgerRows+1
}

// at returns column c of row k; the caller checks holds around it.
func (g *ledger) at(k int64, c int) uint64 {
	return g.vals[int(k%ledgerRows)*g.width+c].Load()
}

func (b *archiveBench) setTrace(on bool) {
	if b.rtr == nil {
		return
	}
	if on {
		b.statsAt = b.arch.Stats()
		b.windows, b.pushed = 0, 0
	}
	b.rtr.on, b.wtr.on = on, on
	b.rem.on.Store(on)
}

func (b *archiveBench) tracers() []*tracer {
	if b.rtr == nil {
		return nil
	}
	return []*tracer{b.rtr, b.wtr}
}

func (b *archiveBench) layers(u, t *phase, m map[string]float64) ([]part, error) {
	rw, ww := &b.rtr.agg, &b.wtr.agg
	s, s0 := b.arch.Stats(), b.statsAt
	m["archive.append_us"] = ww.durMedianNs(lAppend) / 1e3
	m["archive.write_ops_per_s"] = u.writeOpsPerSec()
	m["archive.write_latency_p50_us"] = float64(summarize(u.writeLat()).p50) / 1e3
	if s.Samples > 0 {
		m["archive.bytes_per_sample"] = float64(s.EncodedBytes) / float64(s.Samples)
	}
	m["archive.folded_rows"] = float64(s.Folded - s0.Folded)
	m["archive.compactions"] = float64(s.Compactions - s0.Compactions)
	m["archive.evalwindow_us"] = rw.durMedianNs(lEvalWindow) / 1e3
	m["archive.raw_range_us"] = rw.durMedianNs(lRawRange) / 1e3
	if n := b.checked + b.unchecked; n > 0 {
		m["archive.checked_share"] = float64(b.checked) / float64(n)
	}
	if b.windows > 0 {
		m["metricql.pushdown_share"] = float64(b.pushed) / float64(b.windows)
	}
	m["metricql.eval_self_us"] = rw.selfMedianNs(lQuery) / 1e3

	daemonSamples(m, b.rem, len(b.metrics), len(t.writeLat())) // one sample per write
	if err := codecProbe(m, b.daemon.FetchAll()); err != nil {
		return nil, err
	}
	pmids := make([]uint32, len(b.metrics))
	for i, am := range b.metrics {
		pmids[i] = am.pmid
	}
	var vals []pcp.FetchValue
	fi, err := probe(probeTime, 256, func() error {
		vals = b.daemon.FetchInto(pmids, vals[:0]).Values
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["pcp.daemon_fetchinto_ns"] = fi

	return []part{
		{"metricql engine, parse, bind, eval (self)", rw.expectedNs(lQuery)},
		{"archive Replay.Names + Fetch", rw.expectedNs(lReplayNames) + rw.expectedNs(lReplayFetch)},
		{"archive Replay.EvalWindow (pushdown)", rw.expectedNs(lEvalWindow)},
		{"archive Samples (raw ranges)", rw.expectedNs(lRawRange)},
	}, nil
}

func (b *archiveBench) close() error {
	b.stop()
	return b.daemon.Close()
}
