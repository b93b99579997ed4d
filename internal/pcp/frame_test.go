package pcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// tframe builds a tagged wire frame with an arbitrary (possibly lying)
// length prefix and an arbitrary (possibly hostile) tenant for seeding
// the fuzzer.
func tframe(length uint32, typ uint8, tag, tenant uint32, payload []byte) []byte {
	b := make([]byte, TaggedHdrLen, TaggedHdrLen+len(payload))
	binary.BigEndian.PutUint32(b, length)
	b[4] = typ
	binary.BigEndian.PutUint32(b[5:9], tag)
	binary.BigEndian.PutUint32(b[9:13], tenant)
	return append(b, payload...)
}

// writeTagged frames and writes one tagged PDU the way both ends of a
// Version3 connection do, through a frameBatch.
func writeTagged(w io.Writer, typ uint8, tag, tenant uint32, payload []byte) error {
	var b frameBatch
	if _, err := b.append(typ, tag, tenant, payload); err != nil {
		return err
	}
	return b.flush(w)
}

// recordedPipelinedSession reproduces the byte stream of a realistic
// Version3 exchange — interleaved requests and out-of-order responses,
// including a batch — as seed material: the frames a demux reader
// actually sees, in an order lockstep framing never produces.
func recordedPipelinedSession(t interface{ Fatal(args ...any) }) []byte {
	var buf bytes.Buffer
	write := func(typ uint8, tag uint32, payload []byte) {
		if err := writeTagged(&buf, typ, tag, tag%2, payload); err != nil {
			t.Fatal(err)
		}
	}
	write(PDUNamesReq, 1, nil)
	write(PDUFetchReq, 2, EncodeFetchReq([]uint32{1, 2, 3}))
	write(PDUFetchBatchReq, 3, EncodeFetchBatchReq([][]uint32{{1, 2}, {3}}))
	// Responses complete out of order: 3, 1, 2.
	write(PDUFetchBatchResp, 3, EncodeFetchBatchResp([]FetchResult{
		{Timestamp: 5, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 5}, {PMID: 2, Status: StatusOK, Value: 5}}},
		{Timestamp: 5, Values: []FetchValue{{PMID: 3, Status: StatusNoSuchPMID}}},
	}, []string{"node7"}, "edge down"))
	write(PDUNamesResp, 1, EncodeNamesResp([]NameEntry{{PMID: 1, Name: "mem.read_bw"}}))
	write(PDUFetchResp, 2, EncodeFetchResp(FetchResult{Timestamp: 5, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 5}}}))
	return buf.Bytes()
}

// FuzzReadTaggedPDU extends FuzzReadPDU's robustness contract to the
// tagged frame format: hostile tag/length/tenant combinations fail with
// ErrProtocol (never a panic, never an allocation past MaxPDUBytes),
// accepted frames round-trip bytewise through a frameBatch with type,
// tag and tenant preserved, and the Version3 payload decoders (version,
// batch request, batch response, status error) are total on arbitrary
// accepted payloads.
func FuzzReadTaggedPDU(f *testing.F) {
	// Well-formed frames of each Version3 PDU type.
	f.Add(tframe(4, PDUVersionReq, 0, 0, EncodeVersion(Version3)))
	f.Add(tframe(4, PDUVersionResp, 0, 0, EncodeVersion(Version1)))
	f.Add(tframe(uint32(len(EncodeFetchReq([]uint32{1, 2}))), PDUFetchReq, 7, 1, EncodeFetchReq([]uint32{1, 2})))
	br := EncodeFetchBatchReq([][]uint32{{1, 2, 3}, {4}, {}})
	f.Add(tframe(uint32(len(br)), PDUFetchBatchReq, 9, 2, br))
	bresp := EncodeFetchBatchResp([]FetchResult{
		{Timestamp: 1, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 1}}},
	}, nil, "")
	f.Add(tframe(uint32(len(bresp)), PDUFetchBatchResp, 9, 2, bresp))
	f.Add(tframe(uint32(len(EncodeError("boom"))), PDUError, 0xDEADBEEF, 0, EncodeError("boom")))
	// A recorded pipelined session: interleaved tags, out-of-order
	// completion, a partial batch. The fuzzer reads the first frame and
	// mutates from there into mid-stream corruption.
	f.Add(recordedPipelinedSession(f))
	f.Add(recordedPipelinedSession(f)[TaggedHdrLen:]) // session cut mid-stream at a frame boundary
	// Hostile tag/length combinations.
	f.Add(tframe(0xFFFFFFFF, PDUFetchResp, 0xFFFFFFFF, 0, nil)) // oversize claim, hostile tag
	f.Add(tframe(MaxPDUBytes+1, PDUFetchBatchResp, 1, 0, nil))  // just over the cap
	f.Add(tframe(100, PDUFetchBatchReq, 2, 0, []byte{1, 2, 3})) // claims more than present
	f.Add(tframe(2, PDUVersionResp, 3, 0, []byte{0, 0, 0, 3}))  // claims less than present
	f.Add([]byte{0, 0, 0, 1, 9, 0})                             // truncated header
	f.Add(tframe(8, PDUFetchBatchReq, 0, 0, bytes.Repeat([]byte{0xFF}, 8)))
	// Hostile tenant tags: any 32-bit tenant value must be structurally
	// accepted (policy is the admission layer's job, not the framing's).
	se := EncodeStatusError(StatusOverload, "shed: tenant over quota")
	f.Add(tframe(uint32(len(se)), PDUStatusError, 11, 3, se))
	f.Add(tframe(uint32(len(EncodeFetchReq([]uint32{1}))), PDUFetchReq, 1, 0xFFFFFFFF, EncodeFetchReq([]uint32{1})))
	f.Add(tframe(4, PDUVersionReq, 0, 0xDEADBEEF, EncodeVersion(Version3)))
	f.Add(tframe(0xFFFFFFFF, PDUFetchResp, 2, 0x41414141, nil)) // oversize claim, hostile tenant
	f.Add(tframe(100, PDUFetchReq, 3, 0, []byte{1, 2}))         // claims more than present

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, tag, tenant, payload, err := ReadTaggedPDUInto(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			if errors.Is(err, ErrPDUTooLarge) && !errors.Is(err, ErrProtocol) {
				t.Fatal("ErrPDUTooLarge must wrap ErrProtocol")
			}
			return
		}
		if len(payload) > MaxPDUBytes {
			t.Fatalf("accepted %d-byte payload beyond MaxPDUBytes", len(payload))
		}
		// An accepted frame round-trips bytewise, tag and tenant included.
		var buf bytes.Buffer
		if err := writeTagged(&buf, typ, tag, tenant, payload); err != nil {
			t.Fatalf("writing accepted frame: %v", err)
		}
		typ2, tag2, tenant2, payload2, err := ReadTaggedPDUInto(bufio.NewReader(&buf), nil)
		if err != nil {
			t.Fatalf("re-read of written frame: %v", err)
		}
		if typ2 != typ || tag2 != tag || tenant2 != tenant || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed frame: type %d->%d, tag %d->%d, tenant %d->%d, %d->%d bytes",
				typ, typ2, tag, tag2, tenant, tenant2, len(payload), len(payload2))
		}
		// Header-only reads must leave the payload unread so a demux
		// reader can discard unknown tags without buffering them. (buf
		// was drained by the re-read above; rebuild the frame.)
		if err := writeTagged(&buf, typ, tag, tenant, payload); err != nil {
			t.Fatal(err)
		}
		hr := bytes.NewReader(buf.Bytes())
		if _, _, _, n, err := ReadTaggedHeader(hr); err != nil {
			t.Fatalf("ReadTaggedHeader on accepted frame: %v", err)
		} else if hr.Len() != int(n) {
			t.Fatalf("ReadTaggedHeader consumed payload bytes: %d left, want %d", hr.Len(), n)
		}
		// Version3 decoders must be total on arbitrary accepted payloads.
		if v, err := DecodeVersion(payload); err == nil && v == 0 {
			t.Fatal("DecodeVersion accepted version 0")
		}
		if sets, err := DecodeFetchBatchReqInto(payload, nil); err == nil {
			if len(sets) > MaxBatchSets {
				t.Fatalf("DecodeFetchBatchReqInto produced implausible %d sets", len(sets))
			}
		}
		if out, pe, err := DecodeFetchBatchRespInto(payload, nil); err == nil {
			total := 0
			for _, r := range out {
				total += len(r.Values)
			}
			if total > MaxPDUBytes/12 {
				t.Fatalf("DecodeFetchBatchRespInto produced implausible %d values", total)
			}
			if pe != nil && len(pe.Missing) > MaxPDUBytes/4 {
				t.Fatalf("DecodeFetchBatchRespInto produced implausible %d missing nodes", len(pe.Missing))
			}
		}
		if se, err := DecodeStatusError(payload); err == nil {
			if errors.Is(se, ErrOverload) != (se.Status == StatusOverload) {
				t.Fatalf("StatusError{%d} overload classification inconsistent", se.Status)
			}
		}
	})
}

// TestStatusErrorCodec pins the typed-rejection payload: round trip,
// overload classification via errors.Is, and decoder totality.
func TestStatusErrorCodec(t *testing.T) {
	b := EncodeStatusError(StatusOverload, "shed: over quota")
	se, err := DecodeStatusError(b)
	if err != nil {
		t.Fatal(err)
	}
	if se.Status != StatusOverload || se.Msg != "shed: over quota" {
		t.Fatalf("decoded %+v", se)
	}
	if !errors.Is(se, ErrOverload) {
		t.Fatal("StatusOverload must unwrap to ErrOverload")
	}
	other, err := DecodeStatusError(EncodeStatusError(StatusNodeDown, "down"))
	if err != nil {
		t.Fatal(err)
	}
	if errors.Is(other, ErrOverload) {
		t.Fatal("non-overload status must not unwrap to ErrOverload")
	}
	if _, err := DecodeStatusError([]byte{1, 2}); err == nil {
		t.Fatal("truncated payload must not decode")
	}
	if _, err := DecodeStatusError(append(b, 0)); err == nil {
		t.Fatal("trailing bytes must not decode")
	}
}

// TestTaggedFrameRoundTrip covers the tagged frame format directly:
// write/read round trip with tag and tenant preserved, header-only reads
// leaving the payload unread, and batch coalescing of tagged frames.
func TestTaggedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello tagged world")
	if err := writeTagged(&buf, PDUFetchReq, 7, 42, payload); err != nil {
		t.Fatal(err)
	}
	typ, tag, tenant, got, err := ReadTaggedPDUInto(bufio.NewReader(bytes.NewReader(buf.Bytes())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != PDUFetchReq || tag != 7 || tenant != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type=%d tag=%d tenant=%d payload=%q", typ, tag, tenant, got)
	}
	hr := bytes.NewReader(buf.Bytes())
	if _, _, _, n, err := ReadTaggedHeader(hr); err != nil {
		t.Fatal(err)
	} else if hr.Len() != int(n) {
		t.Fatalf("header read consumed payload: %d left, want %d", hr.Len(), n)
	}

	// Oversize claims are rejected before any allocation.
	big := tframe(MaxPDUBytes+1, PDUFetchResp, 1, 2, nil)
	if _, _, _, _, err := ReadTaggedPDUInto(bufio.NewReader(bytes.NewReader(big)), nil); !errors.Is(err, ErrPDUTooLarge) {
		t.Fatalf("oversize tagged frame: err = %v, want ErrPDUTooLarge", err)
	}

	// A batch of tagged frames coalesces and decodes frame by frame.
	var batch frameBatch
	for i := uint32(1); i <= 3; i++ {
		if _, err := batch.append(PDUFetchResp, i, i*10, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := batch.flush(&out); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(out.Bytes()))
	for i := uint32(1); i <= 3; i++ {
		typ, tag, tenant, p, err := ReadTaggedPDUInto(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ != PDUFetchResp || tag != i || tenant != i*10 || len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("frame %d: type=%d tag=%d tenant=%d payload=%v", i, typ, tag, tenant, p)
		}
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("trailing bytes after batch")
	}
}
