package pcp

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// Request is one decoded request PDU as a Handler sees it.
type Request struct {
	Type uint8
	// Tenant is the requester's in-band identity from the tagged frame;
	// 0, the default tenant, on a Version1 connection.
	Tenant uint32
	// Tagged reports that the connection negotiated Version3, so the
	// peer understands PDUStatusError.
	Tagged bool
	// Payload aliases the server's read buffer under Sequential dispatch
	// and is only valid for the duration of the call.
	Payload []byte
}

// Handler answers one request: it appends the response payload to dst
// and returns the response type and the grown slice. The server keeps
// the returned slice and passes it back, truncated, as the next dst, so
// a handler that encodes with the Append* functions serves without
// allocating; resp must therefore be dst or an extension of it.
type Handler func(dst []byte, req Request) (respType uint8, resp []byte)

// Dispatch selects how a Server runs the requests of a tagged
// connection.
type Dispatch uint8

const (
	// Sequential serves one request at a time on the connection's
	// goroutine, reusing per-connection scratch and coalescing the
	// responses of a pipelined burst into one vectored write. It suits
	// handlers whose cost is local CPU (the daemon, the proxy).
	Sequential Dispatch = iota
	// Concurrent runs each request on its own goroutine, at most
	// concurrentSlots per connection, so a request stalled downstream
	// does not block later tags on the same connection. It suits
	// handlers dominated by downstream round trips (the federator). The
	// handler is then called concurrently, with a nil dst and its own
	// copy of the payload.
	Concurrent
)

// concurrentSlots caps in-flight requests per connection under
// Concurrent dispatch: a pipelined client cannot spawn unbounded handler
// goroutines; past the cap the reader blocks, which is exactly TCP
// backpressure.
const concurrentSlots = 32

// serveFlushBytes caps how many coalesced response bytes the sequential
// tagged loop holds before forcing a flush.
const serveFlushBytes = 64 << 10

// acceptBackoffMax caps the sleep between retries of a failing Accept.
const acceptBackoffMax = time.Second

// Server speaks the server side of the PDU protocol: it accepts
// connections, performs the magic handshake, negotiates the wire
// version, and runs the lockstep (Version1) or tagged (Version3) loop,
// handing every request to a per-connection Handler. The daemon, the
// proxy and the cluster federator all serve through it.
type Server struct {
	newConn  func() Handler
	dispatch Dispatch

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewServer builds a server that calls newConn once per accepted
// connection for the handler serving it; per-connection scratch lives in
// that handler's closure.
func NewServer(dispatch Dispatch, newConn func() Handler) *Server {
	return &Server{
		newConn:  newConn,
		dispatch: dispatch,
		closed:   make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves clients in the
// background until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("pcp: listen: %w", err)
	}
	return s.StartOn(ln), nil
}

// StartOn serves clients on an existing listener until Close. It is the
// injection point for wrapped listeners (fault injection, custom
// transports). It returns the listener's address.
//
// Accepting is sharded per core: GOMAXPROCS goroutines block in Accept
// on the one listener (the kernel load-balances wakeups), so a
// connection burst is admitted in parallel instead of serializing on a
// single accept loop.
func (s *Server) StartOn(ln net.Listener) string {
	s.ln = ln
	n := runtime.GOMAXPROCS(0)
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go s.acceptLoop()
	}
	return ln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			// Transient accept errors (EMFILE, ECONNABORTED): back off
			// with a capped doubling sleep instead of spinning hot.
			if backoff == 0 {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			select {
			case <-s.closed:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.connMu.Lock()
		select {
		case <-s.closed:
			// Close already disconnected the registry; a connection
			// accepted across it would otherwise outlive Close.
			s.connMu.Unlock()
			conn.Close()
			continue
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn handles one client connection: handshake, then a lockstep
// request/response loop. A PDUVersionReq negotiating Version3 hands the
// connection to the tagged loop; Version1 clients never send one and
// stay in lockstep.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	if err := serverHandshake(br, bw); err != nil {
		return
	}
	h := s.newConn()
	var payloadBuf, respBuf []byte
	for {
		typ, payload, err := ReadPDUInto(br, payloadBuf)
		if err != nil {
			return
		}
		payloadBuf = payload
		var (
			respType uint8
			version  uint32
		)
		if typ == PDUVersionReq {
			respType, respBuf, version = negotiate(payload, respBuf[:0])
		} else {
			respType, respBuf = h(respBuf[:0], Request{Type: typ, Payload: payload})
		}
		if err := WritePDU(bw, respType, respBuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if version == Version3 {
			s.serveTagged(conn, br, h, respBuf)
			return
		}
	}
}

// negotiate answers a PDUVersionReq payload, appending the response to
// dst: Version3 to a peer whose maximum is at least 3, Version1 to any
// other. version is 0 on a malformed request, whose response is then a
// PDUError.
func negotiate(payload, dst []byte) (respType uint8, resp []byte, version uint32) {
	peerMax, err := DecodeVersion(payload)
	if err != nil {
		return PDUError, AppendError(dst, err.Error()), 0
	}
	version = Version1
	if peerMax >= Version3 {
		version = Version3
	}
	return PDUVersionResp, AppendVersion(dst, version), version
}

// serveTagged runs the tagged loop on a negotiated connection: tagged
// frames in, tagged frames out, each response echoing its request's tag
// and tenant.
//
// Under Sequential dispatch responses accumulate in a frameBatch and are
// flushed with one vectored write when no further request is already
// buffered, so a pipelined burst of n requests costs one read wakeup and
// one write syscall instead of n of each. A response larger than the
// coalescing threshold is referenced zero-copy and flushed before the
// next request is read, so reusing respBuf stays safe.
//
// Under Concurrent dispatch each request runs on its own goroutine and
// its response is written as soon as it is ready, serialized with the
// others by a write mutex.
func (s *Server) serveTagged(conn net.Conn, br *bufio.Reader, h Handler, respBuf []byte) {
	var (
		payloadBuf []byte
		batch      frameBatch
		wmu        sync.Mutex // guards batch under Concurrent dispatch
		inflight   sync.WaitGroup
		slots      chan struct{}
	)
	if s.dispatch == Concurrent {
		slots = make(chan struct{}, concurrentSlots)
	}
	defer inflight.Wait()
	for {
		if slots == nil && !batch.empty() && br.Buffered() == 0 {
			// Nothing more buffered: flush before blocking in the read.
			// With input pending, read first so a burst coalesces.
			if err := batch.flush(conn); err != nil {
				return
			}
		}
		typ, tag, tenant, payload, err := ReadTaggedPDUInto(br, payloadBuf)
		if err != nil {
			return
		}
		payloadBuf = payload
		req := Request{Type: typ, Tenant: tenant, Tagged: true, Payload: payload}
		if slots != nil {
			// The handler runs concurrently with the next read, so it
			// gets its own copy of the payload.
			req.Payload = append([]byte(nil), payload...)
			slots <- struct{}{}
			inflight.Add(1)
			go func(req Request, tag uint32) {
				defer inflight.Done()
				respType, resp := h(nil, req)
				wmu.Lock()
				_, err := batch.append(respType, tag, req.Tenant, resp)
				if err == nil {
					err = batch.flush(conn)
				}
				wmu.Unlock()
				<-slots
				if err != nil {
					conn.Close() // unblocks the reader; the loop exits on its error
				}
			}(req, tag)
			continue
		}
		respType, resp := h(respBuf[:0], req)
		respBuf = resp
		direct, err := batch.append(respType, tag, tenant, resp)
		if err != nil {
			return
		}
		if direct || len(batch.small) >= serveFlushBytes {
			// Flush now: either the batch references resp zero-copy (the
			// next request would overwrite the buffer it lives in), or
			// enough responses accumulated that holding more would just
			// grow the batch — writing applies backpressure to a peer
			// that streams requests without reading answers.
			if err := batch.flush(conn); err != nil {
				return
			}
		}
	}
}

// Close stops the listener, disconnects clients, and waits for
// connection handlers to finish. It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return err
}

// serverHandshake performs the server side of connection setup: the
// client sends Magic, the server echoes it. The magic is compared in
// place inside the bufio.Reader's buffer (Peek/Discard), so the
// handshake allocates nothing per connection.
func serverHandshake(br *bufio.Reader, bw *bufio.Writer) error {
	magic, err := br.Peek(len(Magic))
	if err != nil {
		return err
	}
	if string(magic) != Magic {
		return fmt.Errorf("%w: bad handshake %q", ErrProtocol, magic)
	}
	if _, err := br.Discard(len(Magic)); err != nil {
		return err
	}
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	return bw.Flush()
}
