package main

import (
	"encoding/binary"
	"slices"

	"papimc/internal/sweep"
	"papimc/internal/xrand"
)

// tableLen is the length of each generated input table; loops cycle
// through it.
const tableLen = 4096

// traffic is one seeded memory-traffic posting for one sample interval.
type traffic struct {
	ReadBytes  int64
	WriteBytes int64
	Steps      int
}

// Window functions a reader query can use; fnSamples is a raw
// Archive.Samples range instead of a metricql query.
const (
	fnAvgOver  = "avg_over"
	fnRateOver = "rate_over"
	fnSamples  = "samples"
)

// window is one seeded archive read.
type window struct {
	Fn     string
	Metric int   // nest event index on socket 0: channel*2 + write
	Len    int64 // ns
	// Aligned asks for the window edges on the rollup tier's bucket
	// boundaries; otherwise they sit between them.
	Aligned bool
	// Pos places the window end inside the span it can occupy, [0, 1).
	Pos float64
}

// Seeded window lengths. Metricql windows read the raw tier (20s), the
// 10s tier (1m, 5m) and the 5m tier (20m, 25m); raw ranges return 11
// to 101 rows at the archive's 1s cadence.
var (
	queryLens = []int64{20e9, 60e9, 300e9, 1200e9, 1500e9}
	rangeLens = []int64{10e9, 50e9, 100e9}
)

// inputs is everything the benchmark feeds the program, generated from
// the seed alone.
type inputs struct {
	Traffic []traffic
	// Sets[c] is connection c's batch on proxy-fanout: the shared sets
	// followed by the connection's own.
	Sets    [][][]uint32
	Windows []window
}

// Shape of the proxy-fanout batches.
const (
	setsPerBatch = 8
	setSize      = 4
	sharedSets   = setsPerBatch / 2
)

// genInputs derives every input table from seed. conns is the number of
// proxy connections and nPMIDs the size of the proxied daemon's
// namespace (PMIDs 1..nPMIDs).
func genInputs(seed uint64, conns, nPMIDs int) inputs {
	var in inputs

	rt := xrand.New(sweep.Seed(seed, 0))
	for range tableLen {
		r := (1 << 20) + rt.Int63n(63<<20)
		w := int64(float64(r) * (0.2 + 0.6*rt.Float64()))
		in.Traffic = append(in.Traffic, traffic{ReadBytes: r, WriteBytes: w, Steps: 1 + rt.Intn(4)})
	}

	rs := xrand.New(sweep.Seed(seed, 1))
	seen := map[string]bool{}
	newSet := func() []uint32 {
		for {
			perm := rs.Perm(nPMIDs)[:setSize]
			set := make([]uint32, setSize)
			for i, p := range perm {
				set[i] = uint32(p + 1)
			}
			key := string(setKey(set))
			if !seen[key] {
				seen[key] = true
				return set
			}
		}
	}
	shared := make([][]uint32, sharedSets)
	for i := range shared {
		shared[i] = newSet()
	}
	for range conns {
		batch := slices.Clone(shared)
		for range setsPerBatch - sharedSets {
			batch = append(batch, newSet())
		}
		in.Sets = append(in.Sets, batch)
	}

	rw := xrand.New(sweep.Seed(seed, 2))
	for range tableLen {
		w := window{Metric: rw.Intn(16), Aligned: rw.Intn(2) == 0}
		switch k := rw.Intn(5); {
		case k < 2:
			w.Fn = fnAvgOver
		case k < 4:
			w.Fn = fnRateOver
		default:
			w.Fn = fnSamples
		}
		if w.Fn == fnSamples {
			w.Len = rangeLens[rw.Intn(len(rangeLens))]
		} else {
			w.Len = queryLens[rw.Intn(len(queryLens))]
		}
		w.Pos = rw.Float64()
		in.Windows = append(in.Windows, w)
	}
	return in
}

// setKey is a PMID set's identity regardless of order.
func setKey(set []uint32) []byte {
	s := slices.Clone(set)
	slices.Sort(s)
	var b []byte
	for _, id := range s {
		b = binary.BigEndian.AppendUint32(b, id)
	}
	return b
}
