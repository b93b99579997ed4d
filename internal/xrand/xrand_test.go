package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical values of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child and continued parent streams must not be identical.
	identical := true
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			identical = false
			break
		}
	}
	if identical {
		t.Error("split child reproduces parent stream")
	}
}

func TestInt63nRange(t *testing.T) {
	s := New(3)
	for _, n := range []int64{1, 2, 7, 1000, math.MaxInt64} {
		for i := 0; i < 200; i++ {
			v := s.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	New(1).Int63n(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(13)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(17)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(23)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

// TestMixKnownAnswers pins the exported finalizer to the SplitMix64
// reference: the first output of a zero-seeded stream, and Uint64 as
// exactly Mix of the advanced state.
func TestMixKnownAnswers(t *testing.T) {
	if got := Mix(gamma); got != 0xE220A8397B1DCDAF {
		t.Fatalf("Mix(gamma) = %#x, want the SplitMix64 reference 0xe220a8397b1dcdaf", got)
	}
	for _, seed := range []uint64{0, 1, 0xC4A05, 1 << 63} {
		if got, want := New(seed).Uint64(), Mix(seed+gamma); got != want {
			t.Errorf("seed %#x: Uint64 = %#x, Mix = %#x", seed, got, want)
		}
	}
}
