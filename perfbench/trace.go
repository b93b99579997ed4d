package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// layer identifies the boundary a span was recorded at. Spans are
// recorded by the benchmark around calls into each layer's public
// functions; the program under test carries no tracing of its own.
type layer uint8

const (
	lPapiRead    layer = iota // papi EventSet.Read (op root on papi-pcp-read)
	lPCPComp                  // pcp component Counters.ReadAt
	lPCPFetch                 // pcpcomp Source.FetchInto: the client round trip
	lNest                     // one daemon sample: every Metric.Read (nest PMU and mem)
	lNVML                     // nvml component Counters.ReadAt
	lIB                       // infiniband component Counters.ReadAt
	lProxyBatch               // pcp Client.FetchBatch through pmproxy (op root)
	lSnapshot                 // cluster Tree.Snapshot (op root)
	lQuery                    // one metricql window query (op root)
	lReplayNames              // archive Replay.Names
	lReplayFetch              // archive Replay.Fetch
	lEvalWindow               // archive Replay.EvalWindow (metricql pushdown)
	lRawRange                 // archive Archive.Samples (op root)
	lWrite                    // one archive write (op root)
	lFetchAll                 // pcp Daemon.FetchAll, in process
	lAppend                   // archive Archive.Append
	nLayers
)

var layerNames = [nLayers]string{
	"papi.EventSet.Read",
	"pcpcomp.Counters.ReadAt",
	"pcp.Source.FetchInto",
	"pcp.Daemon.sample (Metric.Read)",
	"nvmlcomp.Counters.ReadAt",
	"ibcomp.Counters.ReadAt",
	"pcp.Client.FetchBatch",
	"cluster.Tree.Snapshot",
	"metricql.Query",
	"archive.Replay.Names",
	"archive.Replay.Fetch",
	"archive.Replay.EvalWindow",
	"archive.Archive.Samples",
	"archive.write",
	"pcp.Daemon.FetchAll",
	"archive.Archive.Append",
}

// epoch anchors span timestamps; set once at start-up.
var epoch = time.Now()

// nowNs is the monotonic time since epoch in nanoseconds.
func nowNs() int64 { return int64(time.Since(epoch)) }

// span is one timed call. Spans of one op share op; parent indexes the
// op's span list (-1 for the op root).
type span struct {
	op     uint32
	parent int32
	layer  layer
	start  int64
	end    int64
}

// keepOps is how many ops' spans a tracer keeps for the written trace.
const keepOps = 512

// tracer records the spans of the ops one loader goroutine runs and
// folds each finished op into per-layer self times. Only its owning
// goroutine touches it; on is flipped between phases, never during one.
type tracer struct {
	on    bool
	rem   *remote // spans other goroutines record on this loader's behalf
	op    uint32
	spans []span
	stack []int32
	agg   waterfall
	kept  []span
	cover [][2]int64 // scratch for selfTimes
}

func newTracer(rem *remote) *tracer { return &tracer{rem: rem} }

// beginOp starts a new op with its root span.
func (t *tracer) beginOp(l layer) {
	t.op++
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
	t.begin(l)
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(l layer) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{op: t.op, parent: parent, layer: l, start: nowNs()})
	t.stack = append(t.stack, idx)
	t.link()
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = nowNs()
	t.stack = t.stack[:n]
	t.link()
}

// link publishes the innermost open span as the parent of spans that
// other goroutines record meanwhile.
func (t *tracer) link() {
	if t.rem == nil {
		return
	}
	if n := len(t.stack); n > 0 {
		t.rem.link.Store(uint64(t.op)<<32 | uint64(uint32(t.stack[n-1])))
	} else {
		t.rem.link.Store(0)
	}
}

// endOp closes the root span, gathers the op's remote spans and folds
// the op into the per-layer aggregate.
func (t *tracer) endOp() {
	t.end()
	if t.rem != nil {
		t.spans = t.rem.take(t.op, t.spans)
	}
	t.cover = t.agg.add(t.spans, t.cover)
	if t.op <= keepOps {
		t.kept = append(t.kept, t.spans...)
	}
}

// remote collects spans recorded on goroutines the loader does not own
// (the daemon's serving goroutines). A span is attributed to the op and
// span published in link when it starts; with link zero it is only
// counted.
type remote struct {
	on    atomic.Bool
	link  atomic.Uint64
	start atomic.Int64 // start of the daemon sample in progress

	mu    sync.Mutex
	spans []span
	calls int64
	ns    int64
}

func (r *remote) record(l layer, start, end int64) {
	ln := r.link.Load()
	r.mu.Lock()
	r.calls++
	r.ns += end - start
	if op := uint32(ln >> 32); op != 0 {
		r.spans = append(r.spans, span{op: op, parent: int32(uint32(ln)), layer: l, start: start, end: end})
	}
	r.mu.Unlock()
}

// take appends the spans recorded for op to dst and drops the rest.
func (r *remote) take(op uint32, dst []span) []span {
	r.mu.Lock()
	for _, s := range r.spans {
		if s.op == op {
			dst = append(dst, s)
		}
	}
	r.spans = r.spans[:0]
	r.mu.Unlock()
	return dst
}

// daemonSamples reports the daemon samples recorded in rem: how many
// per op, and their mean time, whole and per metric read.
func daemonSamples(m map[string]float64, rem *remote, nMetrics, ops int) {
	samples, ns := rem.totals()
	m["pcp.resamples_per_op"] = float64(samples) / float64(ops)
	if samples > 0 {
		m["nest.resample_us"] = float64(ns) / float64(samples) / 1e3
		m["nest.read_ns"] = float64(ns) / float64(samples) / float64(nMetrics)
	}
}

// totals returns the calls recorded and their summed duration.
func (r *remote) totals() (calls, ns int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls, r.ns
}

// waterfall accumulates, per layer, the per-op self time and span time
// of every op in which the layer appeared.
type waterfall struct {
	ops  int
	self [nLayers][]int64
	dur  [nLayers][]int64
}

// add folds one op's spans in and returns the (possibly grown) scratch.
func (w *waterfall) add(spans []span, scratch [][2]int64) [][2]int64 {
	var self, dur [nLayers]int64
	var present [nLayers]bool
	scratch = selfTimes(spans, &self, &dur, &present, scratch)
	w.ops++
	for l := range present {
		if present[l] {
			w.self[l] = append(w.self[l], self[l])
			w.dur[l] = append(w.dur[l], dur[l])
		}
	}
	return scratch
}

// share is the fraction of ops in which layer l appeared.
func (w *waterfall) share(l layer) float64 {
	if w.ops == 0 {
		return 0
	}
	return float64(len(w.self[l])) / float64(w.ops)
}

// selfMedianNs is layer l's median self time over the ops it appeared
// in.
func (w *waterfall) selfMedianNs(l layer) float64 { return median(w.self[l]) }

// expectedNs weights selfMedianNs by how often the layer appeared: its
// share of an average op, the figure a waterfall adds up.
func (w *waterfall) expectedNs(l layer) float64 { return w.selfMedianNs(l) * w.share(l) }

// durMedianNs is the median per-op span time of layer l over the ops it
// appeared in.
func (w *waterfall) durMedianNs(l layer) float64 { return median(w.dur[l]) }

// selfTimes sums, per layer, each span's duration and its self time:
// the duration minus the part of its interval that its child spans
// cover (children may overlap one another or run past the parent, so
// coverage is the union of the children's intervals clipped to the
// parent's).
func selfTimes(spans []span, self, dur *[nLayers]int64, present *[nLayers]bool, scratch [][2]int64) [][2]int64 {
	for i, s := range spans {
		scratch = scratch[:0]
		for _, c := range spans {
			if c.parent != int32(i) {
				continue
			}
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				scratch = append(scratch, [2]int64{lo, hi})
			}
		}
		d := s.end - s.start
		self[s.layer] += d - unionLen(scratch)
		dur[s.layer] += d
		present[s.layer] = true
	}
	return scratch
}

// unionLen returns the total length covered by the intervals, sorting
// them in place.
func unionLen(iv [][2]int64) int64 {
	for i := 1; i < len(iv); i++ { // insertion sort: a handful of children
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var total int64
	var curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanRecord is the written form of one span.
type spanRecord struct {
	Loader  int    `json:"loader"`
	Op      uint32 `json:"op"`
	Span    int    `json:"span"`
	Parent  int32  `json:"parent"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace writes the kept spans of every tracer as JSON lines to
// dir/<name> and returns the file's path.
func writeTrace(dir, name string, tracers []*tracer) (path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for li, t := range tracers {
		idx := 0
		var op uint32
		for _, s := range t.kept {
			if s.op != op {
				op, idx = s.op, 0
			}
			rec := spanRecord{Loader: li, Op: s.op, Span: idx, Parent: s.parent, Layer: layerNames[s.layer], StartNs: s.start, EndNs: s.end}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return "", fmt.Errorf("writing trace: %w", err)
			}
			idx++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, f.Close()
}
