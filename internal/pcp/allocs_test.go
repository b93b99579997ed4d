package pcp

import (
	"testing"
)

// The fetch PDU round trip runs once per counter read on the PCP route;
// with reused buffers the encode+decode pair must not allocate.
func TestFetchRespRoundTripDoesNotAllocate(t *testing.T) {
	res := FetchResult{Timestamp: 123456789}
	for i := 0; i < 16; i++ {
		res.Values = append(res.Values, FetchValue{PMID: uint32(i + 1), Status: StatusOK, Value: uint64(i) * 64})
	}
	var buf []byte
	var dec FetchResult
	// Prime the reusable buffers.
	buf = AppendFetchResp(buf[:0], res)
	if err := DecodeFetchRespInto(buf, &dec); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		buf = AppendFetchResp(buf[:0], res)
		if err := DecodeFetchRespInto(buf, &dec); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("fetch resp round trip allocates %.1f objects per run, want 0", got)
	}
	if len(dec.Values) != len(res.Values) || dec.Values[7] != res.Values[7] {
		t.Errorf("round trip corrupted values: %+v", dec.Values)
	}
}

// The request side of the same round trip.
func TestFetchReqRoundTripDoesNotAllocate(t *testing.T) {
	pmids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	var buf []byte
	var dst []uint32
	buf = AppendFetchReq(buf[:0], pmids)
	var err error
	if dst, err = DecodeFetchReqInto(buf, dst[:0]); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		buf = AppendFetchReq(buf[:0], pmids)
		dst, err = DecodeFetchReqInto(buf, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("fetch req round trip allocates %.1f objects per run, want 0", got)
	}
	if len(dst) != len(pmids) || dst[3] != 4 {
		t.Errorf("round trip corrupted pmids: %v", dst)
	}
}

// TestFetchIntoTCPDoesNotAllocate pins the zero-alloc wire round trip:
// a warm pipelined FetchInto against a daemon over loopback TCP
// allocates nothing on either side of the connection — the server loop
// reuses its per-connection encode buffer and both sides flush their
// frame batches without allocating.
func TestFetchIntoTCPDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates in sync.Pool and channel operations")
	}
	_, _, addr := startPipelineDaemon(t, 16)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pmids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	var res FetchResult
	if err := c.FetchInto(pmids, &res); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := c.FetchInto(pmids, &res); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("loopback FetchInto allocates %.1f objects per round trip, want 0", got)
	}
}
