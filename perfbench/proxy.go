package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"papimc/internal/arch"
	"papimc/internal/model"
	"papimc/internal/nest"
	"papimc/internal/node"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
)

// proxyPMIDs is the size of a Summit node daemon's namespace: 16 nest
// metrics per socket, two sockets.
const proxyPMIDs = 32

// advanceEvery is how many proxied batches pass per sample interval.
const advanceEvery = 64

var proxySpec = spec{
	name:      "proxy-fanout",
	exercises: []string{"pcp client", "pcp wire", "pcp batch codec", "pmproxy cache", "pcp daemon", "nest", "mem"},
	bypasses:  []string{"papi", "cluster", "archive", "metricql"},
	loaders:   runtime.NumCPU(),
	main:      runtime.NumCPU(),
	conns:     runtime.NumCPU(),
	setup:     setupProxy,
}

// proxyBench is one connection per loader to a pmproxy in front of one
// Summit node's daemon. Each op is one FetchBatch of the connection's
// seeded sets, half of them shared with the other connections.
type proxyBench struct {
	clock    *simtime.Clock
	interval simtime.Duration
	node     *node.Node
	daemon   *pcp.Daemon
	proxy    *pmproxy.Proxy
	conns    []*proxyConn
	traf     []traffic
	ops      atomic.Int64
	playMu   sync.Mutex

	rem *remote
	// statsAt is the proxy's counters when the traced phase began.
	statsAt pmproxy.Stats
}

// proxyConn is one loader's connection and what it has seen on it.
type proxyConn struct {
	client *pcp.Client
	sets   [][]uint32
	res    []pcp.FetchResult
	seen   [proxyPMIDs + 1]struct {
		ts int64
		v  uint64
	}
	tr *tracer
}

func setupProxy(seed uint64, traced bool, in inputs) (instance, error) {
	m := arch.Summit()
	clock := simtime.NewClock()
	b := &proxyBench{clock: clock, interval: m.Noise.PMCDSampleInterval, traf: in.Traffic}
	b.node = node.New(m, clock, node.Options{Seed: seed}, 0)
	metrics := pcp.NestMetrics(b.node.PMUs, nest.RootCredential())
	if traced {
		b.rem = &remote{}
		metrics = timedMetrics(metrics, b.rem)
	}
	d, err := pcp.NewDaemon(clock, b.interval, metrics)
	if err != nil {
		return nil, err
	}
	if len(d.Names()) != proxyPMIDs {
		return nil, fmt.Errorf("proxy-fanout: daemon exports %d metrics, want %d", len(d.Names()), proxyPMIDs)
	}
	b.daemon = d
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.proxy = pmproxy.New(pmproxy.Config{Upstream: addr, Clock: clock, Interval: b.interval})
	paddr, err := b.proxy.Start("127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	for _, sets := range in.Sets {
		c, err := pcp.Dial(paddr)
		if err != nil {
			b.close()
			return nil, err
		}
		pc := &proxyConn{client: c, sets: sets}
		if traced {
			pc.tr = newTracer(nil)
		}
		b.conns = append(b.conns, pc)
	}
	return b, nil
}

func (b *proxyBench) op(i int, l *loader) {
	if k := b.ops.Add(1); k%advanceEvery == 0 {
		t := b.traf[int(k/advanceEvery)%len(b.traf)]
		b.playMu.Lock()
		b.node.Play(0, model.Traffic{ReadBytes: t.ReadBytes, WriteBytes: t.WriteBytes, Duration: b.interval}, t.Steps)
		b.playMu.Unlock()
	}
	c := b.conns[i]
	issued := int64(b.clock.Now())
	traced := c.tr != nil && c.tr.on
	t0 := nowNs()
	if traced {
		c.tr.beginOp(lProxyBatch)
	}
	res, err := c.client.FetchBatchInto(c.sets, c.res)
	if traced {
		c.tr.endOp()
	}
	t1 := nowNs()
	if err != nil {
		l.fail(err)
		return
	}
	c.res = res
	if err := c.check(issued, int64(b.interval)); err != nil {
		l.fail(err)
		return
	}
	l.check += time.Duration(nowNs() - t1)
	l.lat = append(l.lat, t1-t0)
}

// check verifies one batch answer: every value StatusOK, every answer
// at most one sample interval older than the clock at issue, and each
// PMID's counter never decreasing on the connection. A batch may mix
// the samples on either side of a clock step, so the counter check
// orders values by their sample time: a later sample never reads less,
// an earlier one never more, the same one always the same.
func (c *proxyConn) check(issued, interval int64) error {
	if len(c.res) != len(c.sets) {
		return fmt.Errorf("proxy-fanout: %d answers for %d sets", len(c.res), len(c.sets))
	}
	for si, r := range c.res {
		if r.Timestamp < issued-interval {
			return fmt.Errorf("proxy-fanout: answer sampled at %d, issued at %d", r.Timestamp, issued)
		}
		if len(r.Values) != len(c.sets[si]) {
			return fmt.Errorf("proxy-fanout: %d values for %d PMIDs", len(r.Values), len(c.sets[si]))
		}
		for vi, v := range r.Values {
			if v.Status != pcp.StatusOK || v.PMID != c.sets[si][vi] {
				return fmt.Errorf("proxy-fanout: pmid %d (asked %d) status %d", v.PMID, c.sets[si][vi], v.Status)
			}
			s := &c.seen[v.PMID]
			switch {
			case r.Timestamp > s.ts:
				if v.Value < s.v {
					return fmt.Errorf("proxy-fanout: pmid %d fell from %d to %d", v.PMID, s.v, v.Value)
				}
				s.ts, s.v = r.Timestamp, v.Value
			case r.Timestamp == s.ts && v.Value != s.v:
				return fmt.Errorf("proxy-fanout: pmid %d reads %d and %d at t=%d", v.PMID, s.v, v.Value, s.ts)
			case r.Timestamp < s.ts && v.Value > s.v:
				return fmt.Errorf("proxy-fanout: pmid %d reads %d at t=%d, above %d at t=%d", v.PMID, v.Value, r.Timestamp, s.v, s.ts)
			}
		}
	}
	return nil
}

func (b *proxyBench) setTrace(on bool) {
	if b.rem == nil {
		return
	}
	if on {
		b.statsAt = b.proxy.Stats()
	}
	for _, c := range b.conns {
		c.tr.on = on
	}
	b.rem.on.Store(on)
}

func (b *proxyBench) tracers() []*tracer {
	var out []*tracer
	for _, c := range b.conns {
		if c.tr != nil {
			out = append(out, c.tr)
		}
	}
	return out
}

func (b *proxyBench) layers(u, t *phase, m map[string]float64) ([]part, error) {
	// Proxy counters over the traced phase (tracing does not touch them).
	s, s0 := b.proxy.Stats(), b.statsAt
	clientFetches := s.ClientFetches - s0.ClientFetches
	if clientFetches > 0 {
		m["pmproxy.hit_ratio"] = float64(s.CoalescedHits-s0.CoalescedHits) / float64(clientFetches)
	}
	ops := float64(t.ops())
	m["pmproxy.upstream_rts_per_kop"] = float64(s.UpstreamBatchRTs-s0.UpstreamBatchRTs) / ops * 1000
	m["pmproxy.shed"] = float64(s.Shed - s0.Shed)
	m["pmproxy.stale_serves"] = float64(s.StaleServes - s0.StaleServes)
	m["pmproxy.upstream_errors"] = float64(s.UpstreamErrors - s0.UpstreamErrors)
	m["pmproxy.redials"] = float64(s.Redials - s0.Redials)

	daemonSamples(m, b.rem, proxyPMIDs, t.ops())
	_, ns := b.rem.totals()
	daemonPerOp := float64(ns) / ops
	var rt []int64
	for _, c := range b.conns {
		rt = append(rt, c.tr.agg.dur[lProxyBatch]...)
	}
	rtNs := median(rt)
	m["pcp.fetch_rt_us"] = rtNs / 1e3
	m["pcp.wire_self_us"] = (rtNs - daemonPerOp) / 1e3

	// Standalone probes with the clock held: every set is a cache hit.
	sets := b.conns[0].sets
	inproc, err := probe(probeTime, 16, func() error {
		_, err := b.proxy.FetchBatch(sets)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["pmproxy.inproc_batch_us"] = inproc / 1e3
	m["pmproxy.wire_us"] = (rtNs - inproc) / 1e3

	batch := b.daemon.FetchBatch(sets)
	var buf []byte
	var dec []pcp.FetchResult
	codec, err := probe(probeTime, 64, func() error {
		buf = pcp.AppendFetchBatchResp(buf[:0], batch, nil, "")
		out, pe, err := pcp.DecodeFetchBatchRespInto(buf, dec)
		if pe != nil {
			return errors.New("proxy-fanout: codec probe decoded a partial answer")
		}
		dec = out
		return err
	})
	if err != nil {
		return nil, err
	}
	m["pcp.codec_ns"] = codec
	var vals []pcp.FetchValue
	fi, err := probe(probeTime, 256, func() error {
		vals = b.daemon.FetchInto(sets[0], vals[:0]).Values
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["pcp.daemon_fetchinto_ns"] = fi

	return []part{
		{"pmproxy in-process batch (cache hits)", inproc},
		{"daemon Metric.Read, per op", daemonPerOp},
		{"client + wire + proxy serve loop", rtNs - inproc - daemonPerOp},
	}, nil
}

func (b *proxyBench) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range b.conns {
		keep(c.client.Close())
	}
	if b.proxy != nil {
		keep(b.proxy.Close())
	}
	keep(b.daemon.Close())
	return first
}
