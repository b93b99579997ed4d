package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"papimc/internal/archive"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// The self-checks must catch wrong answers, or error_rate means nothing.

func TestProxyCheckCatchesStaleAndFallingAnswers(t *testing.T) {
	const interval = 10
	c := &proxyConn{sets: [][]uint32{{1, 2}}}
	answer := func(ts int64, v1, v2 uint64) []pcp.FetchResult {
		return []pcp.FetchResult{{Timestamp: ts, Values: []pcp.FetchValue{{PMID: 1, Value: v1}, {PMID: 2, Value: v2}}}}
	}
	c.res = answer(100, 5, 6)
	if err := c.check(105, interval); err != nil {
		t.Fatalf("fresh answer rejected: %v", err)
	}
	c.res = answer(90, 4, 6) // one interval older, values consistent with it
	if err := c.check(100, interval); err != nil {
		t.Fatalf("answer one interval old rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		res    []pcp.FetchResult
		issued int64
		want   string
	}{
		{"two intervals stale", answer(80, 1, 1), 100, "sampled at"},
		{"counter fell", answer(110, 4, 7), 110, "fell"},
		{"same sample, other value", answer(100, 5, 7), 100, "reads"},
		{"older sample reads more", answer(95, 9, 6), 100, "above"},
		{"bad status", []pcp.FetchResult{{Timestamp: 120, Values: []pcp.FetchValue{{PMID: 1, Status: pcp.StatusNoSuchPMID}, {PMID: 2}}}}, 120, "status"},
	} {
		c.res = tc.res
		if err := c.check(tc.issued, interval); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want an error about %q", tc.name, err, tc.want)
		}
	}
}

func TestPapiCheckCatchesWrongValue(t *testing.T) {
	inst, err := setupPapi(3, false, genInputs(3, 1, proxyPMIDs))
	if err != nil {
		t.Fatal(err)
	}
	b := inst.(*papiBench)
	defer b.close()
	var l loader
	for range 20 {
		b.op(0, &l)
	}
	if l.failed != 0 || len(l.lat) != 20 {
		t.Fatalf("20 reads: %d failed (%v)", l.failed, l.firstErr)
	}
	b.play()
	now := b.clock.Now()
	vals, err := b.es.Read()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(vals, now); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	vals[3]++
	if err := b.check(vals, now); err == nil {
		t.Error("a nest value one byte off passed the check")
	}
}

func TestArchiveCheckCatchesWrongAnswers(t *testing.T) {
	inst, err := setupArchive(5, false, genInputs(5, 1, proxyPMIDs))
	if err != nil {
		t.Fatal(err)
	}
	b := inst.(*archiveBench)
	defer b.close()
	var l loader
	for range 100 {
		b.op(0, &l)
		if _, err := b.write(); err != nil {
			t.Fatal(err)
		}
	}
	if l.failed != 0 || b.checked == 0 {
		t.Fatalf("%d of 100 reads failed (%v), %d checked", l.failed, l.firstErr, b.checked)
	}
	_, last, _ := b.arch.Span()
	step := int64(archInterval)
	for _, tc := range []struct {
		fn      string
		t1, len int64
	}{
		{fnAvgOver, alignDown(last, 300e9), 1200e9}, // aligned, 5m tier
		{fnRateOver, alignDown(last, 10e9), 60e9},   // aligned, 10s tier
		{fnRateOver, alignDown(last, 10e9) - 3*step, 300e9},
		{fnAvgOver, alignDown(last, 10e9) - 3*step, 60e9},
		{fnAvgOver, last, 20e9}, // raw tier
	} {
		t0 := tc.t1 - tc.len
		got, ok, err := archiveReplayWindow(b, tc.fn, t0, tc.t1)
		if err != nil || !ok {
			t.Fatalf("%s [%d, %d): pushdown %v %v", tc.fn, t0, tc.t1, ok, err)
		}
		if checked, err := b.checkWindow(tc.fn, b.metrics[0].col, t0, tc.t1, got); err != nil || !checked {
			t.Errorf("%s [%d, %d): true answer %v: checked %v, %v", tc.fn, t0, tc.t1, got, checked, err)
		}
		wrong := got * 1.001
		if tc.fn == fnRateOver && t0%10e9 != 0 {
			wrong = got * 3 // beyond the one-bucket-per-edge bound
		}
		if tc.fn == fnAvgOver && t0%10e9 != 0 {
			wrong = got * 2 // outside the touched buckets' rows
		}
		if _, err := b.checkWindow(tc.fn, b.metrics[0].col, t0, tc.t1, wrong); err == nil {
			t.Errorf("%s [%d, %d): wrong answer %v passed (true %v)", tc.fn, t0, tc.t1, wrong, got)
		}
	}
}

// archiveReplayWindow asks the archive's pushdown path directly.
func archiveReplayWindow(b *archiveBench, fn string, t0, t1 int64) (float64, bool, error) {
	clk := simtime.NewClock()
	clk.AdvanceTo(simtime.Time(t1))
	return archive.NewReplay(b.arch, clk).EvalWindow(fn, b.metrics[0].pmid, t0, t1)
}

// TestWorkloadsRun builds every workload and runs it briefly, untraced
// and traced, checking each reports every metric it owns and that no
// op of a listed workload fails.
func TestWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every stack")
	}
	dir := t.TempDir()
	for _, sp := range slices.Concat(specs, unlisted) {
		listed := slices.ContainsFunc(specs, func(s spec) bool { return s.name == sp.name })
		for _, traced := range []bool{false, true} {
			start := time.Now()
			out, err := execute(sp, 11, 0.4, traced, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if out.attempted == 0 {
				t.Errorf("%s traced=%v: no op attempted", sp.name, traced)
			}
			if listed && out.failed > 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", sp.name, traced, out.failed, out.attempted, out.firstErr)
			}
			if !traced {
				for _, d := range endToEnd {
					if !(out.metrics[d.name] > 0) {
						t.Errorf("%s: %s = %v, want > 0", sp.name, d.name, out.metrics[d.name])
					}
				}
			} else if len(out.waterfall) < 2 || out.tracePath == "" {
				t.Errorf("%s: traced run gave waterfall %v, trace %q", sp.name, out.waterfall, out.tracePath)
			}
			t.Logf("%s traced=%v: %d ops, %d failed (%v) in %v", sp.name, traced, out.attempted, out.failed, out.firstErr, time.Since(start))
		}
	}
}
