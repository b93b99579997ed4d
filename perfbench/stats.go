package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer than that and the figure is one or two outliers.
const minBeyond = 10

// tailLadder lists the percentiles the tail rule picks from, each as
// the denominator of its tail share: 2 is p50, 100 is p99.
var tailLadder = []struct {
	label string
	pct   float64
	den   int
}{
	{"p50", 50, 2},
	{"p90", 90, 10},
	{"p99", 99, 100},
	{"p99.9", 99.9, 1_000},
	{"p99.99", 99.99, 10_000},
	{"p99.999", 99.999, 100_000},
}

// rankAt returns the 1-based nearest rank of the quantile 1-1/den in a
// sample of n: the smallest rank r with r/n >= 1-1/den.
func rankAt(n, den int) int {
	r := (n*(den-1) + den - 1) / den
	return max(r, 1)
}

// percentile returns the nearest-rank value of the quantile 1-1/den of
// sorted, or 0 for an empty sample.
func percentile(sorted []int64, den int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankAt(len(sorted), den)-1]
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples above its rank. ok is false when even the
// median lacks them.
func tailPercentile(n int) (idx int, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if n-rankAt(n, tailLadder[i].den) >= minBeyond {
			return i, true
		}
	}
	return 0, false
}

// latencySummary is one sample of op latencies reduced to the reported
// percentiles.
type latencySummary struct {
	n        int
	p50, p99 int64 // ns
	top      int64 // ns, at tailLadder[topIdx]
	topIdx   int
	topOK    bool
}

// summarize sorts lat in place and reduces it.
func summarize(lat []int64) latencySummary {
	slices.Sort(lat)
	s := latencySummary{n: len(lat), p50: percentile(lat, 2), p99: percentile(lat, 100)}
	if i, ok := tailPercentile(len(lat)); ok {
		s.topIdx, s.topOK = i, true
		s.top = percentile(lat, tailLadder[i].den)
	}
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none. It sorts xs in place.
func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return float64(xs[m])
	}
	return (float64(xs[m-1]) + float64(xs[m])) / 2
}

// memSnap is the process-wide resource use at one instant.
type memSnap struct {
	mallocs, bytes uint64
	numGC          uint32
	cycles         uint64 // completed GC cycles, as heapLive counts them
	cpu            time.Duration
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	_, cycles := heapLive()
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, cycles: cycles, cpu: cpuTime()}
}

// heapLive returns the bytes the last collection found live and how
// many collections have completed. It does not stop the world.
func heapLive() (live int64, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64()), s[1].Value.Uint64()
}
