package sweep

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"papimc/internal/xrand"
)

func TestSeedSubstreamsDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for _, base := range []uint64{0, 1, 20230515} {
		for i := 0; i < 1000; i++ {
			s := Seed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("Seed collision: %d repeats task %d", s, prev)
			}
			seen[s] = i
		}
	}
}

// TestSeed2GridDistinct: the two-level (cohort, client) grid yields no
// collisions among itself or with the single-level stream of the same
// base — the property that lets workload cohorts expand deterministically
// without any client sharing a stream.
func TestSeed2GridDistinct(t *testing.T) {
	const base = uint64(42)
	seen := map[uint64]string{}
	for i := 0; i < 8; i++ {
		for j := 0; j < 500; j++ {
			s := Seed2(base, i, j)
			if prev, dup := seen[s]; dup {
				t.Fatalf("Seed2 collision at (%d,%d): repeats %s", i, j, prev)
			}
			seen[s] = "grid"
		}
	}
	for i := 0; i < 1000; i++ {
		if _, dup := seen[Seed(base, i)]; dup {
			t.Fatalf("Seed2 grid collides with Seed(base, %d)", i)
		}
	}
}

func TestSeedDiffersFromBase(t *testing.T) {
	// Task 0's substream must not be the base stream itself, or a
	// parallel sweep's first point would replay the serial run's noise.
	if Seed(42, 0) == 42 {
		t.Error("Seed(base, 0) == base")
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d", got)
	}
	if got := Workers(-3); got < 1 {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 64} {
		got, err := Map(100, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// The determinism contract: a task that draws all randomness from its
// Seed substream yields the same value at every worker count.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []uint64 {
		out, err := Map(50, workers, func(i int) (uint64, error) {
			rng := xrand.New(Seed(99, i))
			var sum uint64
			for k := 0; k < 100; k++ {
				sum += rng.Uint64()
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 16} {
		parallel := run(workers)
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("workers=%d diverges at task %d", workers, i)
			}
		}
	}
}

func TestMapReportsLowestFailingIndex(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(40, 8, func(i int) (int, error) {
		if i == 5 || i == 17 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "task 5") {
		t.Errorf("err = %v, want lowest failing index 5", err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, 4, func(int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(0) = %v, %v", got, err)
	}
}

// TestMapRunsTasksConcurrently proves the pool really overlaps task
// execution (and, under -race, that result assembly is race-free): all
// four tasks block until all four have started, which only terminates if
// four workers run them at once.
func TestMapRunsTasksConcurrently(t *testing.T) {
	const n = 4
	var started sync.WaitGroup
	started.Add(n)
	var peak atomic.Int32
	_, err := Map(n, n, func(i int) (int, error) {
		peak.Add(1)
		started.Done()
		started.Wait()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != n {
		t.Errorf("started %d tasks, want %d", got, n)
	}
}

func TestEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	if err := Each(10, 3, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Errorf("Each err = %v", err)
	}
	if err := Each(10, 3, func(int) error { return nil }); err != nil {
		t.Errorf("Each err = %v", err)
	}
}

// TestSeedKnownAnswers pins Seed and Seed2 bit-for-bit: every seeded
// report in the repository (chaos trials, figures, workload cohorts)
// derives its substreams from them.
func TestSeedKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		got, want uint64
	}{
		{Seed(0xC4A05, 0), 0x26B3AF3A8C70D1E3},
		{Seed(0xC4A05, 1), 0x17DB1DD43584E05C},
		{Seed2(7, 3, 5), 0xE5EC8F642AD313AA},
	} {
		if tc.got != tc.want {
			t.Errorf("got %#016x, want %#016x", tc.got, tc.want)
		}
	}
}
