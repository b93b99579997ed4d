package pcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Tagged framing (wire protocol Version3). A tagged frame is the plain
// 5-byte frame plus a 4-byte request tag and a 4-byte tenant:
//
//	u32 payload length | u8 type | u32 tag | u32 tenant | payload
//
// The tag is chosen by the requester and echoed verbatim in the
// response, which is what lets a connection carry many outstanding
// requests with out-of-order completion: the reader demultiplexes
// responses by tag instead of assuming lockstep order. The tenant
// identifies the requesting principal for admission control and
// per-tenant accounting at a proxy (0 is the default tenant); servers
// echo it verbatim in responses so middleboxes can attribute both
// directions of a stream without per-connection state. Both sides switch
// to tagged frames immediately after a PDUVersionReq / PDUVersionResp
// exchange negotiates Version3; Version1 peers never see a tagged frame.

// TaggedHdrLen is the tagged frame header size.
const TaggedHdrLen = 13

// taggedHdrPool recycles the headers ReadTaggedHeader reads into, like
// hdrPool for plain ones.
var taggedHdrPool = sync.Pool{
	New: func() any { b := make([]byte, TaggedHdrLen); return &b },
}

// putTaggedHdr encodes a tagged frame header into hdr.
func putTaggedHdr(hdr []byte, typ uint8, tag, tenant uint32, payloadLen int) {
	binary.BigEndian.PutUint32(hdr[:4], uint32(payloadLen))
	hdr[4] = typ
	binary.BigEndian.PutUint32(hdr[5:9], tag)
	binary.BigEndian.PutUint32(hdr[9:13], tenant)
}

// ReadTaggedHeader reads one tagged frame header and validates the
// length prefix against MaxPDUBytes before anything is allocated, so a
// hostile tag/length combination can fail with ErrProtocol but never
// force an oversized allocation. Any 32-bit tenant value is structurally
// valid — policy about unknown tenants belongs to the admission layer,
// not the framing. The payload (n bytes) is left unread: a demux reader
// that finds no waiter for the tag discards it with br.Discard instead
// of reading it into memory.
func ReadTaggedHeader(r io.Reader) (typ uint8, tag, tenant uint32, n uint32, err error) {
	hp := taggedHdrPool.Get().(*[]byte)
	hdr := *hp
	_, err = io.ReadFull(r, hdr)
	n = binary.BigEndian.Uint32(hdr[:4])
	typ = hdr[4]
	tag = binary.BigEndian.Uint32(hdr[5:9])
	tenant = binary.BigEndian.Uint32(hdr[9:13])
	taggedHdrPool.Put(hp)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if n > MaxPDUBytes {
		return 0, 0, 0, 0, fmt.Errorf("%w (length prefix %d)", ErrPDUTooLarge, n)
	}
	return typ, tag, tenant, n, nil
}

// ReadTaggedPDUInto reads one whole tagged PDU, reading the payload
// into buf and growing it if needed — the tagged analogue of
// ReadPDUInto, with the same aliasing contract.
func ReadTaggedPDUInto(r io.Reader, buf []byte) (typ uint8, tag, tenant uint32, payload []byte, err error) {
	typ, tag, tenant, n, err := ReadTaggedHeader(r)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, nil, err
	}
	return typ, tag, tenant, payload, nil
}

// coalesceMax is the payload size up to which a frame is copied into
// the batch's contiguous buffer. Larger payloads are referenced
// zero-copy as their own write-vector element; the copy would cost more
// than the extra iovec.
const coalesceMax = 4096

// frameBatch accumulates tagged frames and writes them with one
// vectored write (writev on a TCP connection): small frames coalesce
// into a contiguous buffer so a burst of pipelined requests or
// responses costs one syscall, and large payloads are referenced
// directly so the classic header+payload copy disappears.
//
// Aliasing: a frame appended with a large payload holds a reference to
// that payload until the next flush. append reports this with
// direct=true so callers that reuse their encode buffer flush before
// overwriting it.
type frameBatch struct {
	small []byte      // coalesced headers + small payloads
	cut   int         // start of small's region not yet sealed into vec
	vec   net.Buffers // pending write vector
	// out is the vector flush hands to WriteTo, which advances (and nils
	// out) the slice it is given. Keeping it in the batch, rather than
	// in a local whose address escapes through WriteTo, keeps flush
	// allocation-free.
	out net.Buffers
}

// append adds one tagged frame to the batch. direct reports that the
// payload was referenced zero-copy rather than copied: the caller must
// not modify it before the next flush.
func (b *frameBatch) append(typ uint8, tag, tenant uint32, payload []byte) (direct bool, err error) {
	if len(payload) > MaxPDUBytes {
		return false, fmt.Errorf("%w (writing %d bytes)", ErrPDUTooLarge, len(payload))
	}
	var hdr [TaggedHdrLen]byte
	putTaggedHdr(hdr[:], typ, tag, tenant, len(payload))
	b.small = append(b.small, hdr[:]...)
	if len(payload) > coalesceMax {
		b.seal()
		b.vec = append(b.vec, payload)
		return true, nil
	}
	b.small = append(b.small, payload...)
	return false, nil
}

// seal moves the unsealed tail of small into the write vector. Sealed
// slices stay valid across later appends: growth either writes beyond
// the sealed length or reallocates, leaving the referenced array
// untouched.
func (b *frameBatch) seal() {
	if len(b.small) > b.cut {
		b.vec = append(b.vec, b.small[b.cut:len(b.small):len(b.small)])
		b.cut = len(b.small)
	}
}

// empty reports whether the batch holds no pending frames.
func (b *frameBatch) empty() bool { return len(b.vec) == 0 && len(b.small) == b.cut }

// flush writes every pending frame with a single vectored write and
// resets the batch for reuse (retaining capacity).
func (b *frameBatch) flush(w io.Writer) error {
	b.seal()
	if len(b.vec) == 0 {
		return nil
	}
	b.out = b.vec
	_, err := b.out.WriteTo(w)
	b.vec = b.vec[:0]
	b.small = b.small[:0]
	b.cut = 0
	return err
}
