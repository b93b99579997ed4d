package pcp

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startServer serves newConn's handlers on a loopback listener,
// optionally wrapped, and closes the server when the test ends.
func startServer(t *testing.T, d Dispatch, wrap func(net.Listener) net.Listener, newConn func() Handler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	s := NewServer(d, newConn)
	addr := s.StartOn(ln)
	t.Cleanup(func() { s.Close() })
	return s, addr
}

// echoPMID answers a fetch with each PMID as its own value, stamped at
// the request's tenant — enough to see which request and which tenant a
// response belongs to. Any other request gets an empty fetch response.
func echoPMID(dst []byte, req Request) (uint8, []byte) {
	var pmids []uint32
	if req.Type == PDUFetchReq {
		var err error
		if pmids, err = DecodeFetchReqInto(req.Payload, nil); err != nil {
			return PDUError, AppendError(dst, err.Error())
		}
	}
	res := FetchResult{Timestamp: int64(req.Tenant)}
	for _, id := range pmids {
		res.Values = append(res.Values, FetchValue{PMID: id, Status: StatusOK, Value: uint64(id)})
	}
	return PDUFetchResp, AppendFetchResp(dst, res)
}

// flakyListener fails its first n Accept calls with a transient error,
// then accepts normally.
type flakyListener struct {
	net.Listener
	failures atomic.Int64 // remaining failures
	failed   atomic.Int64 // failures returned
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		l.failed.Add(1)
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestServerAcceptBackoffRecovers: transient Accept errors must neither
// kill the accept loop nor spin it hot — the server backs off, then
// serves the next client normally.
func TestServerAcceptBackoffRecovers(t *testing.T) {
	const failures = 6
	fl := &flakyListener{}
	fl.failures.Store(failures)
	start := time.Now()
	_, addr := startServer(t, Sequential, func(ln net.Listener) net.Listener {
		fl.Listener = ln
		return fl
	}, func() Handler { return echoPMID })

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Fetch([]uint32{4})
	if err != nil {
		t.Fatalf("fetch after transient accept errors: %v", err)
	}
	if len(res.Values) != 1 || res.Values[0].Value != 4 {
		t.Fatalf("fetch got %+v", res)
	}
	if got := fl.failed.Load(); got != failures {
		t.Fatalf("listener returned %d errors, want %d", got, failures)
	}
	// Every failed Accept sleeps at least 1ms before its loop retries.
	if time.Since(start) < time.Millisecond {
		t.Fatal("accept errors were retried without backing off")
	}
}

// TestServerCloseDisconnectsAndWaits: Close disconnects live clients,
// waits for a handler still running, and is idempotent.
func TestServerCloseDisconnectsAndWaits(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	s, addr := startServer(t, Sequential, nil, func() Handler {
		return func(dst []byte, req Request) (uint8, []byte) {
			if req.Type == PDUFetchAllReq { // the request that blocks
				close(entered)
				<-release
				finished.Store(true)
			}
			return echoPMID(dst, req)
		}
	})

	idle, err := DialMax(addr, Version1)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Fetch([]uint32{1}); err != nil {
		t.Fatal(err)
	}
	busy, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	busyErr := make(chan error, 1)
	go func() {
		_, err := busy.FetchAll()
		busyErr <- err
	}()
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !finished.Load() {
		t.Fatal("Close returned before the running handler finished")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := <-busyErr; err == nil {
		t.Fatal("request in flight across Close succeeded, want a disconnect")
	}
	if _, err := idle.Fetch([]uint32{1}); err == nil {
		t.Fatal("idle client still served after Close")
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

// TestServerConcurrentDispatch: under Concurrent dispatch a handler
// blocked on one tag does not delay a later tag on the same connection,
// and in-flight handlers never exceed the bound.
func TestServerConcurrentDispatch(t *testing.T) {
	release := make(chan struct{})
	var inflight, peak atomic.Int64
	_, addr := startServer(t, Concurrent, nil, func() Handler {
		return func(dst []byte, req Request) (uint8, []byte) {
			if req.Type == PDUFetchAllReq { // the requests that block
				n := inflight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				<-release
				inflight.Add(-1)
			}
			return echoPMID(dst, req)
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2*concurrentSlots)
	block := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.FetchAll(); err != nil {
				errs <- err
			}
		}()
	}
	waitInflight := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for inflight.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d handlers in flight, want %d", inflight.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A blocked tag must not hold up a later one on the same connection.
	block()
	waitInflight(1)
	res, err := c.Fetch([]uint32{9})
	if err != nil || len(res.Values) != 1 || res.Values[0].Value != 9 {
		t.Fatalf("later tag behind a blocked one: %+v %v", res, err)
	}

	// Twice the bound of blocking requests: every slot fills and the rest
	// wait behind them. Give a broken bound the chance to admit more.
	for i := 1; i < 2*concurrentSlots; i++ {
		block()
	}
	waitInflight(concurrentSlots)
	time.Sleep(20 * time.Millisecond)
	if p := peak.Load(); p != concurrentSlots {
		t.Fatalf("peak in-flight handlers %d, want the bound %d", p, concurrentSlots)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTenantTravelsInBand proves SetTenant reaches a Version3 server's
// handler in-band: the handler answers every fetch with the tenant it
// saw, and typed status errors travel back as errors.Is(...,
// ErrOverload).
func TestTenantTravelsInBand(t *testing.T) {
	_, addr := startServer(t, Sequential, nil, func() Handler {
		return func(dst []byte, req Request) (uint8, []byte) {
			if req.Tenant == 99 {
				return PDUStatusError, AppendStatusError(dst, StatusOverload, "tenant 99 always shed")
			}
			return PDUFetchResp, AppendFetchResp(dst, FetchResult{
				Timestamp: 1,
				Values:    []FetchValue{{PMID: 1, Status: StatusOK, Value: uint64(req.Tenant)}},
			})
		}
	})

	c, err := DialTenant(addr, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.Version(); v != Version3 {
		t.Fatalf("negotiated %d, want Version3", v)
	}
	if got := c.Tenant(); got != 42 {
		t.Fatalf("Tenant() = %d, want 42", got)
	}
	res, err := c.Fetch([]uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0].Value != 42 {
		t.Fatalf("server saw tenant %v, want 42", res.Values)
	}

	// Retenanting the same connection changes what the server sees.
	c.SetTenant(7)
	res, err = c.Fetch([]uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0].Value != 7 {
		t.Fatalf("after SetTenant(7) server saw %d", res.Values[0].Value)
	}

	// A shed tenant gets a typed overload error, not a string match.
	c.SetTenant(99)
	_, err = c.Fetch([]uint32{1})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("shed fetch err = %v, want ErrOverload", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusOverload {
		t.Fatalf("err = %v, want *StatusError{StatusOverload}", err)
	}

	// The connection stays usable after a typed rejection.
	c.SetTenant(5)
	res, err = c.Fetch([]uint32{1})
	if err != nil || res.Values[0].Value != 5 {
		t.Fatalf("post-rejection fetch: %v %v", res, err)
	}
}
