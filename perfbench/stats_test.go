package main

import "testing"

// TestTailPercentileRule pins the reporting rule: the highest ladder
// percentile with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string // "" for none
	}{
		{0, ""},
		{19, ""},
		{20, "p50"},
		{99, "p50"},
		{100, "p90"},
		{999, "p90"},
		{1000, "p99"},
		{9_999, "p99"},
		{10_000, "p99.9"},
		{100_000, "p99.99"},
		{10_000_000, "p99.999"},
	} {
		i, ok := tailPercentile(tc.n)
		got := ""
		if ok {
			got = tailLadder[i].label
		}
		if got != tc.want {
			t.Errorf("n=%d: tail percentile %q, want %q", tc.n, got, tc.want)
		}
		if ok {
			if beyond := tc.n - rankAt(tc.n, tailLadder[i].den); beyond < minBeyond {
				t.Errorf("n=%d: %s has %d samples beyond it", tc.n, got, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lat := make([]int64, 1000)
	for i := range lat {
		lat[len(lat)-1-i] = int64(i + 1) // 1000..1, summarize sorts
	}
	s := summarize(lat)
	if s.n != 1000 || s.p50 != 500 || s.p99 != 990 {
		t.Errorf("summary %+v, want n=1000 p50=500 p99=990", s)
	}
	if !s.topOK || tailLadder[s.topIdx].label != "p99" || s.top != 990 {
		t.Errorf("top %v (%s), want p99 = 990", s.top, tailLadder[s.topIdx].label)
	}
	if got := percentile([]int64{7}, 100); got != 7 {
		t.Errorf("single-sample p99 = %d", got)
	}
	if got := median([]int64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
