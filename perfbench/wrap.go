package main

import (
	"slices"
	"strings"

	"papimc/internal/archive"
	"papimc/internal/papi"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// The wrappers below are installed only in a traced run. Each forwards
// to the layer it wraps through that layer's existing interface and
// records a span around the call while its tracer is on.

// timedComponent wraps a papi.Component so its counters' reads are
// spans.
type timedComponent struct {
	papi.Component
	tr *tracer
	l  layer
}

func (c timedComponent) NewCounters(natives []string) (papi.Counters, error) {
	ctrs, err := c.Component.NewCounters(natives)
	if err != nil {
		return nil, err
	}
	return timedCounters{Counters: ctrs, tr: c.tr, l: c.l}, nil
}

type timedCounters struct {
	papi.Counters
	tr *tracer
	l  layer
}

func (c timedCounters) ReadAt(t simtime.Time) ([]uint64, error) {
	if !c.tr.on {
		return c.Counters.ReadAt(t)
	}
	c.tr.begin(c.l)
	v, err := c.Counters.ReadAt(t)
	c.tr.end()
	return v, err
}

// timedSource wraps the pcp client handed to pcpcomp.New. It keeps the
// allocation-free FetchInto path the component looks for.
type timedSource struct {
	c  *pcp.Client
	tr *tracer
}

func (s timedSource) Names() ([]pcp.NameEntry, error)               { return s.c.Names() }
func (s timedSource) Lookup(name string) (uint32, error)            { return s.c.Lookup(name) }
func (s timedSource) Fetch(pmids []uint32) (pcp.FetchResult, error) { return s.c.Fetch(pmids) }

func (s timedSource) FetchInto(pmids []uint32, res *pcp.FetchResult) error {
	if !s.tr.on {
		return s.c.FetchInto(pmids, res)
	}
	s.tr.begin(lPCPFetch)
	err := s.c.FetchInto(pmids, res)
	s.tr.end()
	return err
}

// timedMetrics wraps the Read funcs handed to pcp.NewDaemon so that
// each daemon sample is one span in rem: from the start of the first
// metric's Read to the end of the last one's. The daemon reads its
// table in PMID order, which is sorted-name order, one sample at a time;
// one span per sample keeps the tracing cost off each of its reads.
func timedMetrics(ms []pcp.Metric, rem *remote) []pcp.Metric {
	out := slices.Clone(ms)
	slices.SortFunc(out, func(a, b pcp.Metric) int { return strings.Compare(a.Name, b.Name) })
	last := len(out) - 1
	for i := range out {
		read := out[i].Read
		out[i].Read = func(t simtime.Time) (uint64, error) {
			if !rem.on.Load() {
				return read(t)
			}
			if i == 0 {
				rem.start.Store(nowNs())
			}
			v, err := read(t)
			if i == last {
				rem.record(lNest, rem.start.Load(), nowNs())
			}
			return v, err
		}
	}
	return out
}

// timedReplay wraps an archive replay as the metricql engine's Source
// and WindowPlanner, counting the windows the archive answers.
type timedReplay struct {
	r  *archive.Replay
	tr *tracer
	// windows counts EvalWindow calls and pushed the ones the archive
	// answered itself.
	windows, pushed *int
}

func (s timedReplay) Names() ([]pcp.NameEntry, error) {
	if !s.tr.on {
		return s.r.Names()
	}
	s.tr.begin(lReplayNames)
	n, err := s.r.Names()
	s.tr.end()
	return n, err
}

func (s timedReplay) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	if !s.tr.on {
		return s.r.Fetch(pmids)
	}
	s.tr.begin(lReplayFetch)
	res, err := s.r.Fetch(pmids)
	s.tr.end()
	return res, err
}

func (s timedReplay) EvalWindow(fn string, pmid uint32, t0, t1 int64) (float64, bool, error) {
	if !s.tr.on {
		return s.r.EvalWindow(fn, pmid, t0, t1)
	}
	s.tr.begin(lEvalWindow)
	v, ok, err := s.r.EvalWindow(fn, pmid, t0, t1)
	s.tr.end()
	*s.windows++
	if ok {
		*s.pushed++
	}
	return v, ok, err
}
