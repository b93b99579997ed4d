package pcp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Client is an unprivileged connection to a PMCD daemon. It is safe for
// concurrent use.
//
// Against a Version3 peer (negotiated at connection setup) the client
// pipelines: many requests stay outstanding on the one connection, a
// writer goroutine coalesces them into vectored tagged frames, and a
// demux reader completes them out of order, each under its own
// per-request deadline. Against a Version1 peer — or when pinned with
// DialMax(addr, Version1) — requests are serialized on the connection
// in lockstep, exactly as before the version bump.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration // per-round-trip wall deadline; 0 = none
	armed   bool          // lockstep: whether a conn deadline is set

	version uint32    // negotiated wire version (read-only after setup)
	pl      *pipeline // non-nil iff version == Version3

	// Scratch buffers reused across lockstep round trips (guarded by
	// mu): the encoded request and the received payload. A round trip's
	// response is decoded before mu is released, so aliasing is safe.
	reqBuf  []byte
	recvBuf []byte

	names map[string]uint32 // lazily populated name table
}

// Dial connects, performs the protocol handshake, and negotiates the
// highest wire version both sides speak.
func Dial(addr string) (*Client, error) { return DialMax(addr, MaxVersion) }

// DialMax is Dial with a client-side cap on the negotiated wire
// version. DialMax(addr, Version1) pins the lockstep protocol — the
// behaviour of an old client — which is also what the chaos harness
// uses to keep its byte-exact fault accounting on the single-flight
// path.
func DialMax(addr string, maxVersion uint32) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pcp: dial %s: %w", addr, err)
	}
	return NewClientConnMax(conn, maxVersion)
}

// DialRaw connects using the given handshake magic; it exists so tests
// can exercise the daemon's rejection of unknown protocols.
func DialRaw(addr, magic string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pcp: dial %s: %w", addr, err)
	}
	return NewClientConnRaw(conn, magic)
}

// NewClientConn performs the protocol handshake over an
// already-established connection and returns a Client speaking on it.
// It is the injection point for transport wrappers (fault injection,
// in-process pipes): anything that satisfies net.Conn can carry the
// protocol. On handshake failure the connection is closed.
func NewClientConn(conn net.Conn) (*Client, error) {
	return NewClientConnMax(conn, MaxVersion)
}

// NewClientConnMax is NewClientConn with a cap on the negotiated wire
// version (see DialMax).
func NewClientConnMax(conn net.Conn, maxVersion uint32) (*Client, error) {
	return newClientConn(conn, Magic, maxVersion)
}

// NewClientConnRaw is NewClientConn with a caller-chosen handshake magic.
func NewClientConnRaw(conn net.Conn, magic string) (*Client, error) {
	return newClientConn(conn, magic, MaxVersion)
}

func newClientConn(conn net.Conn, magic string, maxVersion uint32) (*Client, error) {
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), version: Version1}
	if _, err := c.bw.WriteString(magic); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	echo := make([]byte, len(Magic))
	if _, err := io.ReadFull(c.br, echo); err != nil {
		conn.Close()
		return nil, fmt.Errorf("pcp: handshake: %w", err)
	}
	if string(echo) != Magic {
		conn.Close()
		return nil, fmt.Errorf("%w: bad handshake %q", ErrProtocol, echo)
	}
	if maxVersion > Version1 {
		if err := c.negotiate(maxVersion); err != nil {
			conn.Close()
			return nil, err
		}
	}
	if c.version == Version3 {
		c.pl = newPipeline(conn, c.br)
	}
	return c, nil
}

// DialTenant is Dial plus SetTenant: the connection identifies itself as
// the given tenant on every request (requires a Version3 peer for the
// tenant to travel in-band; against a Version1 peer it is silently
// absent, and the server accounts the connection as the default tenant).
func DialTenant(addr string, tenant uint32) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetTenant(tenant)
	return c, nil
}

// SetTenant sets the tenant stamped on every subsequent request's tagged
// frame. It only has wire effect on a Version3 connection; on a
// Version1 connection it is a no-op. Safe for concurrent use; requests
// already enqueued keep the tenant they were issued with.
func (c *Client) SetTenant(tenant uint32) {
	if c.pl != nil {
		c.pl.tenant.Store(tenant)
	}
}

// Tenant returns the tenant currently stamped on outgoing requests
// (zero — the default tenant — on a Version1 connection).
func (c *Client) Tenant() uint32 {
	if c.pl != nil {
		return c.pl.tenant.Load()
	}
	return 0
}

// negotiate runs the version exchange on a fresh lockstep connection.
// A Version1-only server does not know PDUVersionReq and answers with
// PDUError; that is the fallback signal — the connection is still in
// lockstep protocol state, so the client simply stays at Version1.
func (c *Client) negotiate(maxVersion uint32) error {
	if err := WritePDU(c.bw, PDUVersionReq, AppendVersion(c.reqBuf[:0], maxVersion)); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	typ, resp, err := ReadPDUInto(c.br, c.recvBuf)
	if err != nil {
		return err
	}
	c.recvBuf = resp
	switch typ {
	case PDUVersionResp:
		v, err := DecodeVersion(resp)
		if err != nil {
			return err
		}
		if v > maxVersion {
			return fmt.Errorf("%w: server negotiated version %d above our %d", ErrProtocol, v, maxVersion)
		}
		if v != Version1 && v != Version3 {
			return fmt.Errorf("%w: server negotiated unknown version %d", ErrProtocol, v)
		}
		c.version = v
	case PDUError:
		// Old server: keep lockstep Version1.
		c.version = Version1
	default:
		return fmt.Errorf("%w: expected PDU %d, got %d", ErrProtocol, PDUVersionResp, typ)
	}
	return nil
}

// Version returns the negotiated wire protocol version.
func (c *Client) Version() uint32 { return c.version }

// Close closes the connection. On a pipelined client every request in
// flight fails with ErrClientClosed.
func (c *Client) Close() error {
	if c.pl != nil {
		return c.pl.close()
	}
	return c.conn.Close()
}

// SetTimeout bounds every subsequent round trip by a wall-clock
// deadline; zero disables it. On a lockstep connection a timed-out
// round trip leaves the connection in an undefined protocol state and
// it should be discarded. On a pipelined connection the deadline is
// per-request: a timeout fails only that request (with
// ErrRequestTimeout) and the connection stays usable — the late
// response is discarded by tag.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

func (c *Client) timeoutNow() time.Duration {
	c.mu.Lock()
	d := c.timeout
	c.mu.Unlock()
	return d
}

// roundTripLocked sends one request PDU and decodes the reply, surfacing
// daemon-side error PDUs as Go errors. The caller must hold c.mu. The
// returned payload aliases the client's receive buffer and is only valid
// until the next round trip; callers decode it before releasing the lock.
func (c *Client) roundTripLocked(reqType uint8, payload []byte, wantType uint8) ([]byte, error) {
	resp, _, err := c.roundTripAnyLocked(reqType, payload, wantType, wantType)
	return resp, err
}

// roundTripAnyLocked is roundTripLocked accepting either of two response
// types, returning which one arrived.
//
// The connection deadline is managed edge-triggered: armed (one
// SetDeadline) per round trip while a timeout is configured, disarmed
// (one SetDeadline) only on the first round trip after the timeout is
// cleared, and never touched when no timeout has been set — zero
// deadline syscalls on the common path instead of the old
// arm-plus-defer-disarm pair per request.
func (c *Client) roundTripAnyLocked(reqType uint8, payload []byte, want1, want2 uint8) ([]byte, uint8, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		c.armed = true
	} else if c.armed {
		c.conn.SetDeadline(time.Time{})
		c.armed = false
	}
	if err := WritePDU(c.bw, reqType, payload); err != nil {
		return nil, 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, 0, err
	}
	typ, resp, err := ReadPDUInto(c.br, c.recvBuf)
	if err != nil {
		return nil, 0, err
	}
	c.recvBuf = resp
	if typ == PDUError {
		msg, derr := DecodeError(resp)
		if derr != nil {
			return nil, 0, derr
		}
		return nil, 0, fmt.Errorf("pcp: daemon error: %s", msg)
	}
	if typ == PDUStatusError {
		se, derr := DecodeStatusError(resp)
		if derr != nil {
			return nil, 0, derr
		}
		return nil, 0, se
	}
	if typ != want1 && typ != want2 {
		return nil, 0, fmt.Errorf("%w: expected PDU %d, got %d", ErrProtocol, want1, typ)
	}
	return resp, typ, nil
}

// Names fetches the daemon's metric table.
func (c *Client) Names() ([]NameEntry, error) {
	var entries []NameEntry
	if c.pl != nil {
		call, err := c.pl.roundTrip(PDUNamesReq, nil, c.timeoutNow(), PDUNamesResp, PDUNamesResp)
		if err != nil {
			return nil, err
		}
		entries, err = DecodeNamesResp(call.resp)
		putCall(call)
		if err != nil {
			return nil, err
		}
	} else {
		c.mu.Lock()
		resp, err := c.roundTripLocked(PDUNamesReq, nil, PDUNamesResp)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		entries, err = DecodeNamesResp(resp)
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	names := make(map[string]uint32, len(entries))
	for _, e := range entries {
		names[e.Name] = e.PMID
	}
	c.mu.Lock()
	c.names = names
	c.mu.Unlock()
	return entries, nil
}

// Fetch retrieves values for the given PMIDs. Against a federated
// server it may return both a valid (partial) result and a
// *PartialError naming the nodes that contributed nothing; see
// FetchInto.
func (c *Client) Fetch(pmids []uint32) (FetchResult, error) {
	var res FetchResult
	if err := c.FetchInto(pmids, &res); err != nil {
		var pe *PartialError
		if errors.As(err, &pe) {
			return res, err
		}
		return FetchResult{}, err
	}
	return res, nil
}

// FetchInto is Fetch decoding into res, reusing res.Values' backing
// array. With a warm result it performs the whole round trip without
// allocating: the request is encoded into and the response received
// into reused buffers (client scratch in lockstep mode, a pooled call
// in pipelined mode).
//
// A PDUFetchPartialResp from a federated server decodes into a valid
// res AND a non-nil *PartialError return: the values for the missing
// nodes carry StatusNodeDown and the error names those nodes. Any
// other non-nil error leaves res untrustworthy.
func (c *Client) FetchInto(pmids []uint32, res *FetchResult) error {
	if c.pl != nil {
		enc := func(dst []byte) []byte { return AppendFetchReq(dst, pmids) }
		call, err := c.pl.roundTrip(PDUFetchReq, enc, c.timeoutNow(), PDUFetchResp, PDUFetchPartialResp)
		if err != nil {
			return err
		}
		err = decodeFetchFamily(call.respTyp, call.resp, res)
		putCall(call)
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqBuf = AppendFetchReq(c.reqBuf[:0], pmids)
	return c.fetchRoundTripLocked(PDUFetchReq, c.reqBuf, res)
}

// FetchAll retrieves every metric the server exports, in PMID order,
// from one snapshot — the batch form of Fetch, one round trip for the
// whole namespace. Partial results surface as in FetchInto.
func (c *Client) FetchAll() (FetchResult, error) {
	var res FetchResult
	if err := c.FetchAllInto(&res); err != nil {
		var pe *PartialError
		if errors.As(err, &pe) {
			return res, err
		}
		return FetchResult{}, err
	}
	return res, nil
}

// FetchAllInto is FetchAll decoding into res, reusing its backing array.
func (c *Client) FetchAllInto(res *FetchResult) error {
	if c.pl != nil {
		call, err := c.pl.roundTrip(PDUFetchAllReq, nil, c.timeoutNow(), PDUFetchResp, PDUFetchPartialResp)
		if err != nil {
			return err
		}
		err = decodeFetchFamily(call.respTyp, call.resp, res)
		putCall(call)
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fetchRoundTripLocked(PDUFetchAllReq, nil, res)
}

// FetchBatch fetches multiple PMID sets in one round trip: the answer
// to sets[i] is results[i], and on a Version3 connection every set is
// served from one snapshot — the network analogue of a whole
// multi-component EventSet read. Partial federated answers return both
// valid results and one *PartialError covering the batch.
//
// On a Version1 (lockstep) connection the batch degrades to one round
// trip per set; the results keep their per-set timestamps but lose the
// single-snapshot guarantee.
func (c *Client) FetchBatch(sets [][]uint32) ([]FetchResult, error) {
	return c.FetchBatchInto(sets, nil)
}

// FetchBatchInto is FetchBatch decoding into results, reusing its outer
// array and each element's Values backing array.
func (c *Client) FetchBatchInto(sets [][]uint32, results []FetchResult) ([]FetchResult, error) {
	if c.pl != nil {
		enc := func(dst []byte) []byte { return AppendFetchBatchReq(dst, sets) }
		call, err := c.pl.roundTrip(PDUFetchBatchReq, enc, c.timeoutNow(), PDUFetchBatchResp, PDUFetchBatchResp)
		if err != nil {
			return nil, err
		}
		out, pe, err := DecodeFetchBatchRespInto(call.resp, results)
		putCall(call)
		if err != nil {
			return nil, err
		}
		if len(out) != len(sets) {
			return nil, fmt.Errorf("%w: batch answered %d sets, asked %d", ErrProtocol, len(out), len(sets))
		}
		if pe != nil {
			return out, pe
		}
		return out, nil
	}
	// Lockstep fallback: one round trip per set, partial errors merged.
	if cap(results) < len(sets) {
		grown := make([]FetchResult, len(sets))
		copy(grown, results[:cap(results)])
		results = grown
	}
	results = results[:len(sets)]
	var merged *PartialError
	for i, pmids := range sets {
		if err := c.FetchInto(pmids, &results[i]); err != nil {
			var pe *PartialError
			if !errors.As(err, &pe) {
				return nil, err
			}
			if merged == nil {
				merged = &PartialError{Cause: pe.Cause}
			}
			merged.Missing = mergeMissing(merged.Missing, pe.Missing)
		}
	}
	if merged != nil {
		return results, merged
	}
	return results, nil
}

// mergeMissing unions two sorted missing-node lists, preserving order.
func mergeMissing(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// decodeFetchFamily decodes a full or partial fetch response into res;
// a partial response returns the reconstructed *PartialError.
func decodeFetchFamily(typ uint8, payload []byte, res *FetchResult) error {
	if typ == PDUFetchPartialResp {
		pe, derr := DecodePartialResp(payload, res)
		if derr != nil {
			return derr
		}
		return pe
	}
	return DecodeFetchRespInto(payload, res)
}

// fetchRoundTripLocked performs one fetch-family round trip, accepting
// either a full or a partial fetch response. The caller must hold c.mu.
func (c *Client) fetchRoundTripLocked(reqType uint8, payload []byte, res *FetchResult) error {
	resp, typ, err := c.roundTripAnyLocked(reqType, payload, PDUFetchResp, PDUFetchPartialResp)
	if err != nil {
		return err
	}
	return decodeFetchFamily(typ, resp, res)
}

// Lookup resolves a metric name to its PMID, fetching the name table on
// first use. A miss against the cached table refreshes it once before
// failing, so metrics registered after the cache was populated (the
// daemon's namespace can grow) still resolve.
func (c *Client) Lookup(name string) (uint32, error) {
	c.mu.Lock()
	cached := c.names
	c.mu.Unlock()
	if cached != nil {
		if id, ok := cached[name]; ok {
			return id, nil
		}
	}
	if _, err := c.Names(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	id, ok := c.names[name]
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("pcp: unknown metric %q", name)
	}
	return id, nil
}

// FetchByName resolves and fetches the named metrics in order.
func (c *Client) FetchByName(names ...string) (FetchResult, error) {
	pmids := make([]uint32, len(names))
	for i, n := range names {
		id, err := c.Lookup(n)
		if err != nil {
			return FetchResult{}, err
		}
		pmids[i] = id
	}
	return c.Fetch(pmids)
}
