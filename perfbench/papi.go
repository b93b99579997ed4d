package main

import (
	"fmt"
	"time"

	"papimc/internal/arch"
	"papimc/internal/model"
	"papimc/internal/nest"
	"papimc/internal/node"
	"papimc/internal/papi"
	"papimc/internal/papi/components/ibcomp"
	"papimc/internal/papi/components/nvmlcomp"
	"papimc/internal/papi/components/pcpcomp"
	"papimc/internal/papi/components/perfuncore"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

var papiSpec = spec{
	name:      "papi-pcp-read",
	exercises: []string{"papi", "pcpcomp", "pcp client", "pcp wire", "pcp daemon", "nest", "mem", "nvmlcomp", "ibcomp"},
	bypasses:  []string{"pmproxy", "cluster", "archive", "metricql"},
	loaders:   1,
	main:      1,
	conns:     1,
	setup:     setupPapi,
}

// papiBench is one profiler on a Summit node reading the Fig. 11
// multi-component EventSet: the 16 socket-0 nest MBA events through the
// pcp component, one GPU's power through nvml and one InfiniBand port
// through infiniband.
type papiBench struct {
	clock  *simtime.Clock
	node   *node.Node
	daemon *pcp.Daemon
	client *pcp.Client
	es     *papi.EventSet
	events []nest.Event // the nest events, in EventSet order
	base   []uint64     // their direct values when the set started
	direct []uint64
	traf   []traffic
	next   int

	tr  *tracer
	rem *remote
}

func setupPapi(seed uint64, traced bool, in inputs) (instance, error) {
	m := arch.Summit()
	clock := simtime.NewClock()
	n := node.New(m, clock, node.Options{Seed: seed, DisableNoise: true}, 0)
	b := &papiBench{clock: clock, node: n, traf: in.Traffic}

	metrics := pcp.NestMetrics(n.PMUs, nest.RootCredential())
	if traced {
		b.rem = &remote{}
		b.tr = newTracer(b.rem)
		metrics = timedMetrics(metrics, b.rem)
	}
	d, err := pcp.NewDaemon(clock, m.Noise.PMCDSampleInterval, metrics)
	if err != nil {
		return nil, err
	}
	b.daemon = d
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if b.client, err = pcp.Dial(addr); err != nil {
		d.Close()
		return nil, err
	}

	var src pcpcomp.Source = b.client
	if traced {
		src = timedSource{c: b.client, tr: b.tr}
	}
	lib := papi.NewLibrary(clock)
	if err := lib.Register(perfuncore.New(n.PMUs, nest.CredentialFor(m))); err != nil {
		b.close()
		return nil, err
	}
	for _, c := range []struct {
		c papi.Component
		l layer
	}{
		{pcpcomp.New(src), lPCPComp},
		{nvmlcomp.New(n.AllGPUs()), lNVML},
		{ibcomp.New(n.NIC.Ports), lIB},
	} {
		comp := c.c
		if traced {
			comp = timedComponent{Component: comp, tr: b.tr, l: c.l}
		}
		if err := lib.Register(comp); err != nil {
			b.close()
			return nil, err
		}
	}

	pmu := n.PMUs[0]
	cpu := m.HWThreadsPerSocket() - 1
	var names []string
	for _, ev := range pmu.Events() {
		b.events = append(b.events, ev)
		names = append(names, fmt.Sprintf("pcp:::%s:cpu%d", ev.PCPMetricName(), cpu))
	}
	names = append(names,
		"nvml:::"+n.GPUs[0][0].EventName(),
		"infiniband:::"+n.NIC.Ports[0].Name()+":port_recv_data")
	b.es = lib.NewEventSet()
	if err := b.es.AddAll(names...); err != nil {
		b.close()
		return nil, err
	}
	if err := b.es.Start(); err != nil {
		b.close()
		return nil, err
	}
	if b.base, err = pmu.ReadAll(b.events, nest.RootCredential(), clock.Now()); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// play posts the next seeded traffic volume over one PMCD sample
// interval, advancing the clock past it.
func (b *papiBench) play() {
	t := b.traf[b.next%len(b.traf)]
	b.next++
	b.node.Play(0, model.Traffic{ReadBytes: t.ReadBytes, WriteBytes: t.WriteBytes,
		Duration: b.node.Machine.Noise.PMCDSampleInterval}, t.Steps)
}

func (b *papiBench) op(_ int, l *loader) {
	b.play()
	now := b.clock.Now()
	traced := b.tr != nil && b.tr.on
	t0 := nowNs()
	if traced {
		b.tr.beginOp(lPapiRead)
	}
	vals, err := b.es.Read()
	if traced {
		b.tr.endOp()
	}
	t1 := nowNs()
	if err != nil {
		l.fail(err)
		return
	}
	if err := b.check(vals, now); err != nil {
		l.fail(err)
		return
	}
	l.check += time.Duration(nowNs() - t1)
	l.lat = append(l.lat, t1-t0)
}

// check is the paper's equality: every nest value read through PCP
// equals a privileged direct read of the same counter at the same
// virtual time (exact, the node being noise-free). It also proves the
// daemon served a sample taken after the traffic was posted.
func (b *papiBench) check(vals []uint64, now simtime.Time) error {
	var err error
	b.direct, err = b.node.PMUs[0].ReadAllInto(b.events, nest.RootCredential(), now, b.direct)
	if err != nil {
		return err
	}
	for i, v := range b.direct {
		if want := v - b.base[i]; vals[i] != want {
			return fmt.Errorf("papi-pcp-read: %s via pcp = %d, direct read = %d at t=%d",
				b.events[i].PCPMetricName(), vals[i], want, now)
		}
	}
	return nil
}

func (b *papiBench) setTrace(on bool) {
	if b.tr != nil {
		b.tr.on = on
		b.rem.on.Store(on)
	}
}

func (b *papiBench) tracers() []*tracer {
	if b.tr == nil {
		return nil
	}
	return []*tracer{b.tr}
}

func (b *papiBench) layers(u, t *phase, m map[string]float64) ([]part, error) {
	w := &b.tr.agg
	m["papi.read_self_us"] = w.selfMedianNs(lPapiRead) / 1e3
	m["pcpcomp.read_self_us"] = w.selfMedianNs(lPCPComp) / 1e3
	m["nvml.read_us"] = w.selfMedianNs(lNVML) / 1e3
	m["infiniband.read_us"] = w.selfMedianNs(lIB) / 1e3
	m["pcp.fetch_rt_us"] = w.durMedianNs(lPCPFetch) / 1e3
	m["pcp.wire_self_us"] = w.selfMedianNs(lPCPFetch) / 1e3
	daemonSamples(m, b.rem, len(b.daemon.Names()), t.ops())

	// Standalone probes, run after both phases on the same stack.
	pmids := make([]uint32, len(b.events))
	cpu := b.node.Machine.HWThreadsPerSocket() - 1
	for i, ev := range b.events {
		id, err := b.client.Lookup(fmt.Sprintf("%s.cpu%d", ev.PCPMetricName(), cpu))
		if err != nil {
			return nil, err
		}
		pmids[i] = id
	}
	if err := codecProbe(m, b.daemon.Fetch(pmids)); err != nil {
		return nil, err
	}
	var vals []pcp.FetchValue
	ns1, err := probe(probeTime, 256, func() error {
		vals = b.daemon.FetchInto(pmids, vals[:0]).Values
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["pcp.daemon_fetchinto_ns"] = ns1

	// The paper's direct baseline: the same nest events through
	// perf_uncore with the root credential, traffic posted as in the loop.
	var natives []string
	for _, ev := range b.events {
		natives = append(natives, ev.PerfUncoreName(0))
	}
	ctrs, err := perfuncore.New(b.node.PMUs, nest.RootCredential()).NewCounters(natives)
	if err != nil {
		return nil, err
	}
	defer ctrs.Close()
	var reads []int64
	for start := time.Now(); time.Since(start) < probeTime || len(reads) < 5; {
		b.play()
		now := b.clock.Now()
		t0 := nowNs()
		_, err := ctrs.ReadAt(now)
		reads = append(reads, nowNs()-t0)
		if err != nil {
			return nil, err
		}
	}
	m["perfuncore.read_us"] = median(reads) / 1e3

	return []part{
		{"papi self", w.expectedNs(lPapiRead)},
		{"pcpcomp self", w.expectedNs(lPCPComp)},
		{"pcp client+wire+daemon self", w.expectedNs(lPCPFetch)},
		{"nest+mem (daemon Metric.Read)", w.expectedNs(lNest)},
		{"nvml", w.expectedNs(lNVML)},
		{"infiniband", w.expectedNs(lIB)},
	}, nil
}

func (b *papiBench) close() error {
	if b.es != nil {
		b.es.Close()
	}
	var err error
	if b.client != nil {
		err = b.client.Close()
	}
	if derr := b.daemon.Close(); err == nil {
		err = derr
	}
	return err
}
