package archive

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papimc/internal/stats"
)

// The scale benchmarks record at a 1ms cadence with 1s and 60s rollups:
// 2M rows is ~33 minutes, and the pushdown window covers most of it —
// a 30-day dashboard query over a production archive, scaled down.
const (
	archCadence  = int64(time.Millisecond)
	archBaseRows = 2_000
)

var archRollups = []int64{int64(time.Second), int64(time.Minute)}

// benchArchive appends rows deterministic samples at archCadence: two
// counters at different slopes, a wrapping counter, and a sawtooth level.
func benchArchive(tb testing.TB, rows int, rawRetention int64) *Archive {
	a, err := New(schema(4), Options{Rollups: archRollups, RawRetention: rawRetention, MaxBytes: 1 << 40, MaxBuckets: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	row := Sample{Values: make([]uint64, 4)}
	for i := 0; i < rows; i++ {
		appendBenchRow(tb, a, &row, i)
	}
	return a
}

func appendBenchRow(tb testing.TB, a *Archive, row *Sample, i int) {
	row.Timestamp = int64(i) * archCadence
	row.Values[0] = uint64(i) * 640
	row.Values[1] = uint64(i) * 17
	row.Values[2] = ^uint64(0) - 100_000 + uint64(i)*4096 // wraps early, keeps wrapping
	row.Values[3] = uint64(500 + 100*(i%7))
	if err := a.AppendSample(*row); err != nil {
		tb.Error(err)
	}
}

// benchOp times op after one warm-up call that fills the block caches.
func benchOp(b *testing.B, op func() error) {
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// readHead reads the 100-row window ending at the newest sample.
func readHead(a *Archive) error {
	_, last, _ := a.Span()
	rows, err := a.Samples(last-99*archCadence, last)
	if err == nil && len(rows) != 100 {
		err = fmt.Errorf("head window returned %d rows, want 100", len(rows))
	}
	return err
}

// BenchmarkArchiveQueryVsSize: fixed-width queries on archives of 1x,
// 32x and 1000x archBaseRows rows; the block index makes them O(log
// blocks + answer), so the three sizes should time alike.
func BenchmarkArchiveQueryVsSize(b *testing.B) {
	for _, mult := range []int{1, 32, 1000} {
		b.Run(fmt.Sprintf("rows=%d", mult*archBaseRows), func(b *testing.B) {
			a := benchArchive(b, mult*archBaseRows, 0)
			first, last, _ := a.Span()
			b.Run("Samples", func(b *testing.B) { benchOp(b, func() error { return readHead(a) }) })
			b.Run("ValueAt", func(b *testing.B) {
				benchOp(b, func() error { _, err := a.ValueAt(1, (first+last)/2); return err })
			})
			b.Run("Rate", func(b *testing.B) {
				benchOp(b, func() error { _, err := a.Rate(1, last-int64(time.Second), last); return err })
			})
		})
	}
}

// BenchmarkArchivePushdown: avg_over the last 90% of a 2M-row archive
// from the rollup tier SelectResolution picks versus a raw scan; the
// two averages must agree within the DESIGN.md §15 edge bound.
func BenchmarkArchivePushdown(b *testing.B) {
	a := benchArchive(b, 1000*archBaseRows, 0)
	first, last, _ := a.Span()
	t0, t1 := first+(last-first)/10, last
	res := a.SelectResolution(t0, t1)
	if res == ResRaw {
		b.Fatal("pushdown window selected the raw path")
	}
	raw, err := a.WindowAt(ResRaw, 1, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	ru, err := a.WindowAt(res, 1, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	// The rollup over-includes at most the rows of the buckets the edges
	// cut; each, within its bucket's [Min, Max], moves the average by at
	// most its distance from the raw average over the rollup count.
	rawAvg, bound := raw.Sum/float64(raw.Count), 0.0
	for _, t := range []int64{t0, t1} {
		if t%int64(res) == 0 {
			continue // an aligned edge cuts no bucket
		}
		e, err := a.WindowAt(res, 1, t, t+1)
		if err != nil {
			b.Fatal(err)
		}
		bound += float64(e.Count) * math.Max(math.Abs(float64(e.Max)-rawAvg), math.Abs(float64(e.Min)-rawAvg))
	}
	if gap := math.Abs(ru.Sum/float64(ru.Count) - rawAvg); gap > bound/float64(ru.Count) {
		b.Fatalf("rollup avg is %.0f from raw avg %.0f, beyond the edge bound %.0f", gap, rawAvg, bound/float64(ru.Count))
	}
	for _, r := range []Resolution{ResRaw, res} {
		b.Run(r.String(), func(b *testing.B) {
			benchOp(b, func() error { _, err := a.WindowAt(r, 1, t0, t1); return err })
		})
	}
}

// BenchmarkArchiveReadsDuringCompaction: 100-row reads at the head of
// a 200k-row archive, quiet versus while a writer extends it and the
// compactor folds aged raw blocks every 200µs; the compacting reads
// start only after the first fold. The per-read p50/p99 pair shows what
// concurrent folding costs the tail.
func BenchmarkArchiveReadsDuringCompaction(b *testing.B) {
	b.Run("quiet", func(b *testing.B) { benchHeadReads(b, benchArchive(b, 200_000, 0)) })
	b.Run("compacting", func(b *testing.B) {
		a := benchArchive(b, 200_000, 50_000*archCadence)
		defer a.StartCompactor(200 * time.Microsecond)()
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := Sample{Values: make([]uint64, 4)}
			for i := 200_000; !stop.Load() && !b.Failed(); i++ {
				appendBenchRow(b, a, &row, i)
			}
		}()
		defer wg.Wait()
		defer stop.Store(true)
		for deadline := time.Now().Add(10 * time.Second); a.Stats().Folded == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatal("compactor folded nothing in 10s")
			}
		}
		benchHeadReads(b, a)
		b.ReportMetric(float64(a.Stats().Folded), "rows-folded")
	})
}

// benchHeadReads times readHead per op and reports its p50 and p99.
func benchHeadReads(b *testing.B, a *Archive) {
	var h stats.Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := readHead(a); err != nil {
			b.Fatal(err)
		}
		h.Record(time.Since(start).Nanoseconds())
	}
	b.StopTimer()
	b.ReportMetric(h.Quantile(0.50)/1e3, "p50-us")
	b.ReportMetric(h.Quantile(0.99)/1e3, "p99-us")
}
