package pmproxy

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papimc/internal/arch"
	"papimc/internal/mem"
	"papimc/internal/nest"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

const sampleInterval = 10 * simtime.Millisecond

// nestBed mirrors testutil.NestBed locally: these tests live in
// package pmproxy (they reach unexported proxy state), and testutil
// imports cluster — which imports pmproxy — so importing testutil from
// here would be a cycle.
type nestBed struct {
	Ctl    *mem.Controller
	Clock  *simtime.Clock
	Daemon *pcp.Daemon
	Addr   string
}

func startNestDaemon(t *testing.T, interval simtime.Duration) nestBed {
	t.Helper()
	clock := simtime.NewClock()
	m := arch.Summit()
	ctl := mem.NewController(mem.Config{Channels: m.Socket.MBAChannels, DisableNoise: true}, clock)
	pmu := nest.NewPMU(m, 0, ctl)
	d, err := pcp.NewDaemon(clock, interval, pcp.NestMetrics([]*nest.PMU{pmu}, nest.RootCredential()))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return nestBed{Ctl: ctl, Clock: clock, Daemon: d, Addr: addr}
}

// rig builds a daemon over an ideal Summit socket and a proxy in front
// of it sharing the daemon's clock.
func rig(t *testing.T, cfg func(*Config)) (*mem.Controller, *simtime.Clock, *pcp.Daemon, *Proxy, string) {
	t.Helper()
	bed := startNestDaemon(t, sampleInterval)
	c := Config{
		Upstream:   bed.Addr,
		Clock:      bed.Clock,
		Interval:   sampleInterval,
		Timeout:    2 * time.Second,
		MaxRetries: 1,
	}
	if cfg != nil {
		cfg(&c)
	}
	p := New(c)
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return bed.Ctl, bed.Clock, bed.Daemon, p, addr
}

// TestCoalescing32Clients is the acceptance test for the fan-out win:
// 32 concurrent clients fetching the same metric set within one daemon
// sampling interval cost exactly one upstream round trip.
func TestCoalescing32Clients(t *testing.T) {
	_, clock, _, p, addr := rig(t, nil)
	const clients, fetchesPer = 32, 5
	name := "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value.cpu87"
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := pcp.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < fetchesPer; i++ {
				if _, err := c.FetchByName(name); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.ClientFetches != clients*fetchesPer {
		t.Errorf("client fetches = %d, want %d", st.ClientFetches, clients*fetchesPer)
	}
	if st.UpstreamFetches != 1 {
		t.Errorf("upstream fetches = %d, want 1 (all requests in one sampling interval)", st.UpstreamFetches)
	}
	if st.CoalescedHits != clients*fetchesPer-1 {
		t.Errorf("coalesced hits = %d, want %d", st.CoalescedHits, clients*fetchesPer-1)
	}
	if r := st.CoalescingRatio(); r != clients*fetchesPer {
		t.Errorf("coalescing ratio = %v", r)
	}

	// A new interval costs exactly one more upstream round trip.
	clock.Advance(sampleInterval + simtime.Millisecond)
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.FetchByName(name); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.UpstreamFetches != 2 {
		t.Errorf("upstream fetches after interval = %d, want 2", st.UpstreamFetches)
	}
}

// TestProxyValuesMatchDirect: a value read through the proxy equals the
// value read straight from the daemon, timestamp included.
func TestProxyValuesMatchDirect(t *testing.T) {
	ctl, clock, _, _, addr := rig(t, nil)
	ctl.AddTraffic(true, 0, 64*800, 0, 0)
	clock.Advance(20 * simtime.Millisecond)
	viaProxy, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer viaProxy.Close()
	res, err := viaProxy.Fetch([]uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Timestamp) != int64(clock.Now()) {
		t.Errorf("timestamp = %d, want %d", res.Timestamp, clock.Now())
	}
	var sum uint64
	for _, v := range res.Values {
		if v.Status != pcp.StatusOK {
			t.Fatalf("status %d", v.Status)
		}
		sum += v.Value
	}
	if sum == 0 {
		t.Error("no traffic visible through proxy")
	}
}

// TestStaleServingWhenUpstreamDown: once the upstream daemon dies, the
// proxy keeps answering with the last good result, carrying its original
// timestamp so clients can detect staleness; with DisableStale it fails.
func TestStaleServingWhenUpstreamDown(t *testing.T) {
	_, clock, d, p, addr := rig(t, func(c *Config) {
		c.MaxRetries = 0
		c.Timeout = 200 * time.Millisecond
	})
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	warm, err := c.Fetch([]uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	d.Close() // upstream gone

	// Past the coalescing window the proxy must go upstream, fail, and
	// fall back to the cached answer.
	clock.Advance(sampleInterval + simtime.Millisecond)
	stale, err := c.Fetch([]uint32{1, 2})
	if err != nil {
		t.Fatalf("stale serve failed: %v", err)
	}
	if stale.Timestamp != warm.Timestamp {
		t.Errorf("stale answer re-stamped: %d vs %d", stale.Timestamp, warm.Timestamp)
	}
	if st := p.Stats(); st.StaleServes == 0 || st.UpstreamErrors == 0 {
		t.Errorf("stats = %+v, want stale serves and upstream errors", st)
	}

	// An uncached pmid-set has nothing to degrade to: error PDU.
	if _, err := c.Fetch([]uint32{3}); err == nil {
		t.Error("expected error for uncached set with upstream down")
	}
}

// TestFreshnessStampedBeforeRoundTrip: a cache entry's freshness runs
// from the proxy time read before the upstream round trip, not after
// it. Here the virtual clock steps twice while a fetch is in flight
// (from inside the daemon's metric read); every answer served afterwards
// must still be at most one Interval older than the clock. Stamping at
// completion served the pre-step sample for two more intervals.
func TestFreshnessStampedBeforeRoundTrip(t *testing.T) {
	clock := simtime.NewClock()
	var steps atomic.Bool // armed: the next metric read steps the clock twice
	d, err := pcp.NewDaemon(clock, sampleInterval, []pcp.Metric{{
		Name: "step.now",
		Read: func(now simtime.Time) (uint64, error) {
			if steps.CompareAndSwap(true, false) {
				clock.Advance(sampleInterval)
				clock.Advance(sampleInterval)
			}
			return uint64(now), nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	upstream, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p := New(Config{Upstream: upstream, Clock: clock, Interval: sampleInterval, Timeout: 2 * time.Second})
	defer p.Close()

	pmids := []uint32{1}
	paths := []struct {
		name  string
		fetch func() (pcp.FetchResult, error)
	}{
		{"fetch", func() (pcp.FetchResult, error) { return p.Fetch(pmids) }},
		{"batch", func() (pcp.FetchResult, error) {
			out, err := p.FetchBatch([][]uint32{pmids})
			if err != nil {
				return pcp.FetchResult{}, err
			}
			return out[0], nil
		}},
	}
	for _, path := range paths {
		clock.Advance(sampleInterval) // age out the previous path's entry
		steps.Store(true)
		if _, err := path.fetch(); err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if steps.Load() {
			t.Fatalf("%s: the round trip never read the stepping metric", path.name)
		}
		for i := 0; i < 3; i++ {
			res, err := path.fetch()
			if err != nil {
				t.Fatalf("%s: %v", path.name, err)
			}
			if age := int64(clock.Now()) - res.Timestamp; age > int64(sampleInterval) {
				t.Fatalf("%s: answer %d served %dns old, over one interval (%dns)",
					path.name, i, age, int64(sampleInterval))
			}
		}
	}
}

func TestDisableStaleFailsFast(t *testing.T) {
	_, clock, d, _, addr := rig(t, func(c *Config) {
		c.DisableStale = true
		c.MaxRetries = 0
		c.Timeout = 200 * time.Millisecond
	})
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Fetch([]uint32{1}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	clock.Advance(sampleInterval + simtime.Millisecond)
	if _, err := c.Fetch([]uint32{1}); err == nil {
		t.Error("expected failure with DisableStale")
	}
}

// TestNameTableCachedAndRefreshed: the name table is served from cache
// within an interval and picks up daemon-side namespace growth after it.
func TestNameTableCachedAndRefreshed(t *testing.T) {
	_, clock, d, p, addr := rig(t, nil)
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Register(pcp.Metric{Name: "late.metric",
		Read: func(simtime.Time) (uint64, error) { return 99, nil }}); err != nil {
		t.Fatal(err)
	}
	// Within the interval: still the cached (old) table.
	cached, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != len(before) {
		t.Errorf("cached table grew within interval: %d -> %d", len(before), len(cached))
	}
	clock.Advance(sampleInterval + simtime.Millisecond)
	after, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Errorf("refreshed table has %d entries, want %d", len(after), len(before)+1)
	}
	_ = p
}

// TestRetryBackoffRedials: a flaky upstream dial succeeds after retries.
func TestRetryBackoffRedials(t *testing.T) {
	bed := startNestDaemon(t, sampleInterval)

	var mu sync.Mutex
	dials := 0
	p := New(Config{
		Clock:      bed.Clock,
		Interval:   sampleInterval,
		MaxRetries: 3,
		Dial: func() (*pcp.Client, error) {
			mu.Lock()
			dials++
			n := dials
			mu.Unlock()
			if n <= 2 {
				return nil, fmt.Errorf("transient dial failure %d", n)
			}
			return pcp.Dial(bed.Addr)
		},
	})
	defer p.Close()
	if _, err := p.Fetch([]uint32{1}); err != nil {
		t.Fatalf("fetch through flaky upstream: %v", err)
	}
	st := p.Stats()
	if st.UpstreamErrors != 2 || st.Redials != 1 || st.UpstreamFetches != 1 {
		t.Errorf("stats = %+v, want 2 errors, 1 redial, 1 fetch", st)
	}
	if st.Retries != 2 || st.Exhausted != 0 {
		t.Errorf("stats = %+v, want 2 retries, 0 exhausted", st)
	}

	// Exhausted retries surface ErrUpstreamDown.
	pBad := New(Config{MaxRetries: 1, Dial: func() (*pcp.Client, error) {
		return nil, errors.New("always down")
	}})
	defer pBad.Close()
	if _, err := pBad.Fetch([]uint32{1}); !errors.Is(err, ErrUpstreamDown) {
		t.Errorf("err = %v, want ErrUpstreamDown", err)
	}
	if st := pBad.Stats(); st.UpstreamErrors != 2 || st.Retries != 1 || st.Exhausted != 1 {
		t.Errorf("exhausted stats = %+v, want errors=2 retries=1 exhausted=1", st)
	}
}

// TestBackoffCappedAndJittered is the regression test for the unbounded
// doubling bug: across a long retry sequence the planned sleeps must (a)
// never exceed BackoffMax, (b) stay within each step's jitter window
// [d/2, d], and (c) be reproducible for a fixed Config.Seed.
func TestBackoffCappedAndJittered(t *testing.T) {
	const retries = 20
	run := func(seed uint64) []time.Duration {
		var sleeps []time.Duration
		p := New(Config{
			MaxRetries: retries,
			Backoff:    time.Millisecond,
			BackoffMax: 16 * time.Millisecond,
			Seed:       seed,
			Dial: func() (*pcp.Client, error) {
				return nil, errors.New("always down")
			},
		})
		defer p.Close()
		p.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
		if _, err := p.Fetch([]uint32{1}); !errors.Is(err, ErrUpstreamDown) {
			t.Fatalf("err = %v, want ErrUpstreamDown", err)
		}
		return sleeps
	}

	sleeps := run(7)
	if len(sleeps) != retries {
		t.Fatalf("planned %d sleeps, want %d", len(sleeps), retries)
	}
	// The nominal (pre-jitter) backoff doubles from Backoff and saturates
	// at BackoffMax; each planned sleep must lie in [nominal/2, nominal].
	nominal := time.Millisecond
	const backoffMax = 16 * time.Millisecond
	for i, s := range sleeps {
		if s > backoffMax {
			t.Errorf("sleep %d = %v exceeds BackoffMax %v", i, s, backoffMax)
		}
		if s < nominal/2 || s > nominal {
			t.Errorf("sleep %d = %v outside jitter window [%v, %v]", i, s, nominal/2, nominal)
		}
		if nominal > backoffMax/2 {
			nominal = backoffMax
		} else {
			nominal *= 2
		}
	}
	// Saturation: by the end the nominal backoff must have hit the cap
	// (i.e. the sequence would have overflowed it absent the fix).
	if tail := sleeps[len(sleeps)-1]; tail > backoffMax {
		t.Errorf("tail sleep %v exceeds cap", tail)
	}

	// Determinism: same seed, same planned sleeps; different seed differs.
	if again := run(7); !reflect.DeepEqual(sleeps, again) {
		t.Errorf("sleeps not reproducible for fixed seed:\n%v\n%v", sleeps, again)
	}
	if other := run(8); reflect.DeepEqual(sleeps, other) {
		t.Errorf("different seeds produced identical jitter (suspicious)")
	}
}
