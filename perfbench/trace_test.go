package main

import "testing"

func spansSelf(spans []span) (self, dur [nLayers]int64, present [nLayers]bool) {
	selfTimes(spans, &self, &dur, &present, nil)
	return
}

// TestSelfTimesNested: nested spans' self times add up to the root
// span's duration.
func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{parent: -1, layer: lPapiRead, start: 0, end: 100},
		{parent: 0, layer: lPCPComp, start: 10, end: 40},
		{parent: 1, layer: lPCPFetch, start: 20, end: 30},
		{parent: 0, layer: lNVML, start: 50, end: 70},
	}
	self, dur, present := spansSelf(spans)
	want := map[layer]int64{lPapiRead: 50, lPCPComp: 20, lPCPFetch: 10, lNVML: 20}
	var sum int64
	for l, w := range want {
		if self[l] != w || !present[l] {
			t.Errorf("%s self %d, want %d", layerNames[l], self[l], w)
		}
		sum += self[l]
	}
	if sum != dur[lPapiRead] {
		t.Errorf("self times sum to %d, root lasted %d", sum, dur[lPapiRead])
	}
	if present[lIB] {
		t.Error("absent layer reported present")
	}
}

// TestSelfTimesConcurrentChildren: overlapping children count once, and
// a child running past its parent only covers the overlap.
func TestSelfTimesConcurrentChildren(t *testing.T) {
	self, _, _ := spansSelf([]span{
		{parent: -1, layer: lSnapshot, start: 0, end: 100},
		{parent: 0, layer: lNest, start: 40, end: 90},
		{parent: 0, layer: lNest, start: 10, end: 60},
		{parent: 0, layer: lNest, start: 95, end: 130},
	})
	if self[lSnapshot] != 100-80-5 {
		t.Errorf("root self %d, want 15", self[lSnapshot])
	}
	if self[lNest] != 50+50+35 {
		t.Errorf("children self %d, want their summed durations 135", self[lNest])
	}
	if got := unionLen([][2]int64{{5, 10}, {0, 3}, {2, 4}, {9, 12}}); got != 4+7 {
		t.Errorf("unionLen = %d, want 11", got)
	}
}

// TestTracerLinksRemoteSpans: spans recorded on another goroutine's
// behalf join the op that was open, under the span that was innermost.
func TestTracerLinksRemoteSpans(t *testing.T) {
	rem := &remote{}
	tr := newTracer(rem)
	tr.beginOp(lPapiRead)
	tr.begin(lPCPFetch)
	rem.record(lNest, nowNs(), nowNs()+1)
	tr.end()
	tr.endOp()
	rem.record(lNest, 0, 1) // between ops: counted, not attributed
	tr.beginOp(lPapiRead)
	tr.endOp()

	if len(tr.kept) != 4 {
		t.Fatalf("kept %d spans, want 3 + 1", len(tr.kept))
	}
	if s := tr.kept[2]; s.layer != lNest || s.op != 1 || s.parent != 1 {
		t.Errorf("remote span %+v, want op 1 under span 1", s)
	}
	if s := tr.kept[3]; s.op != 2 || s.parent != -1 {
		t.Errorf("second op root %+v", s)
	}
	if calls, _ := rem.totals(); calls != 2 {
		t.Errorf("remote counted %d calls, want 2", calls)
	}
	w := &tr.agg
	if w.ops != 2 || w.share(lPCPFetch) != 0.5 || w.share(lPapiRead) != 1 {
		t.Errorf("waterfall ops %d, fetch share %v", w.ops, w.share(lPCPFetch))
	}
	if got := w.expectedNs(lPCPFetch); got != w.selfMedianNs(lPCPFetch)/2 {
		t.Errorf("expected fetch self %v, want half the conditional median %v", got, w.selfMedianNs(lPCPFetch))
	}
}
