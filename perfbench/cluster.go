package main

import (
	"errors"
	"fmt"
	"time"

	"papimc/internal/cluster"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
)

// clusterPolicy is the leaf-edge policy pmcluster runs with by default.
// Its deadline and hedge are wall-clock timers, so a slow machine can
// make healthy nodes miss them; the self-check counts every such false
// outage as a failed op.
var clusterPolicy = pmproxy.EdgePolicy{Deadline: 50 * time.Millisecond, HedgeAfter: 10 * time.Millisecond, Retries: 1}

var clusterSpec = spec{
	name:      "cluster-snapshot",
	exercises: []string{"cluster federators", "cluster serve loop", "pmproxy.Upstream edges", "pcp client", "pcp wire", "pcp daemon"},
	bypasses:  []string{"papi", "pmproxy cache", "archive", "metricql", "nest"},
	loaders:   1,
	main:      1,
	setup:     setupCluster,
}

// clusterBench is a 64-node, fan-out-4 tree with every interior edge
// over TCP (21 federators, 84 edges) and one caller taking consistent
// snapshots through the root.
type clusterBench struct {
	tree *cluster.Tree
	want int // root namespace size
	last pcp.FetchResult

	missing     int // nodes reported missing, summed over ops
	uncertified int // ops whose answer failed certification
	tr          *tracer
	edgesAt     pmproxy.UpstreamStats // summed edge counters when the traced phase began
}

func setupCluster(seed uint64, traced bool, _ inputs) (instance, error) {
	tree, err := cluster.Assemble(cluster.Config{Nodes: 64, FanOut: 4, Seed: seed, Net: true, Policy: clusterPolicy})
	if err != nil {
		return nil, err
	}
	names, err := tree.Root.Names()
	if err != nil {
		tree.Close()
		return nil, err
	}
	b := &clusterBench{tree: tree, want: len(names)}
	if traced {
		b.tr = newTracer(nil)
	}
	return b, nil
}

// op takes one snapshot: Snapshot advances the shared clock, fetches the
// whole namespace through the root and certifies every value against
// its node's ground truth at that virtual time.
func (b *clusterBench) op(_ int, l *loader) {
	traced := b.tr != nil && b.tr.on
	t0 := nowNs()
	if traced {
		b.tr.beginOp(lSnapshot)
	}
	res, err := b.tree.Snapshot()
	if traced {
		b.tr.endOp()
	}
	t1 := nowNs()
	if err != nil {
		var pe *pcp.PartialError
		if errors.As(err, &pe) {
			b.missing += len(pe.Missing)
			l.fail(fmt.Errorf("cluster-snapshot: nodes %v reported missing, none was killed", pe.Missing))
		} else {
			b.uncertified++
			l.fail(err)
		}
		return
	}
	if len(res.Values) != b.want {
		l.fail(fmt.Errorf("cluster-snapshot: %d values for %d root metrics", len(res.Values), b.want))
		return
	}
	for _, v := range res.Values {
		if v.Status != pcp.StatusOK {
			l.fail(fmt.Errorf("cluster-snapshot: pmid %d status %d", v.PMID, v.Status))
			return
		}
	}
	b.last = res
	l.check += time.Duration(nowNs() - t1)
	l.lat = append(l.lat, t1-t0)
}

// edgeSums adds up every edge's counters.
func (b *clusterBench) edgeSums() pmproxy.UpstreamStats {
	var s pmproxy.UpstreamStats
	for _, e := range b.tree.EdgeStats() {
		s.Fetches += e.Stats.Fetches
		s.Retries += e.Stats.Retries
		s.Hedges += e.Stats.Hedges
		s.DeadlineMisses += e.Stats.DeadlineMisses
	}
	return s
}

func (b *clusterBench) setTrace(on bool) {
	if b.tr == nil {
		return
	}
	if on {
		b.edgesAt = b.edgeSums()
	}
	b.tr.on = on
}

func (b *clusterBench) tracers() []*tracer {
	if b.tr == nil {
		return nil
	}
	return []*tracer{b.tr}
}

func (b *clusterBench) layers(u, t *phase, m map[string]float64) ([]part, error) {
	e, e0 := b.edgeSums(), b.edgesAt
	ops := float64(t.ops())
	m["cluster.edge_fetches_per_op"] = float64(e.Fetches-e0.Fetches) / ops
	m["cluster.edge_retries"] = float64(e.Retries - e0.Retries)
	m["cluster.edge_hedges"] = float64(e.Hedges - e0.Hedges)
	m["cluster.deadline_misses"] = float64(e.DeadlineMisses - e0.DeadlineMisses)
	m["cluster.missing_per_op"] = float64(b.missing) / float64(u.attempted()+t.attempted())
	m["cluster.uncertified_ops"] = float64(b.uncertified)

	// Standalone probes with the clock held: no daemon resamples, so
	// each is the federation path alone. Levels run leaves first.
	var perLevel []float64
	for _, level := range b.tree.Levels {
		f := level[0]
		ns, err := probe(2*probeTime, 1, func() error {
			_, err := f.FetchAll()
			return err
		})
		if err != nil {
			return nil, err
		}
		perLevel = append(perLevel, ns)
	}
	if len(perLevel) != 3 {
		return nil, fmt.Errorf("cluster-snapshot: tree has %d levels, want 3", len(perLevel))
	}
	leaf, zone, root := perLevel[0], perLevel[1], perLevel[2]
	m["cluster.leaf_fetchall_us"] = leaf / 1e3
	m["cluster.zone_fetchall_us"] = zone / 1e3
	m["cluster.root_fetchall_us"] = root / 1e3
	cert, err := probe(probeTime, 1, func() error { return b.tree.Certify(b.last, b.last.Timestamp) })
	if err != nil {
		return nil, err
	}
	m["cluster.certify_us"] = cert / 1e3
	if err := codecProbe(m, b.last); err != nil {
		return nil, err
	}
	d := b.tree.Nodes[0].Daemon
	var pmids []uint32
	for _, n := range d.Names() {
		pmids = append(pmids, n.PMID)
	}
	var vals []pcp.FetchValue
	fi, err := probe(probeTime, 256, func() error {
		vals = d.FetchInto(pmids, vals[:0]).Values
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["pcp.daemon_fetchinto_ns"] = fi

	snap := b.tr.agg.durMedianNs(lSnapshot)
	return []part{
		{"leaf federator FetchAll (4 daemons over TCP)", leaf},
		{"zone federator self", zone - leaf},
		{"root federator self", root - zone},
		{"clock step, 64 resamples, certify", snap - root},
	}, nil
}

func (b *clusterBench) close() error { return b.tree.Close() }
