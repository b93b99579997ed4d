package pmproxy

import (
	"fmt"
	"testing"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// benchRig builds a daemon with synthetic metrics and a proxy in front
// of it, so the benchmarks measure proxy serving overhead rather than
// the counter model.
func benchRig(b *testing.B) (*Proxy, string) {
	b.Helper()
	ms := make([]pcp.Metric, 16)
	for i := range ms {
		v := uint64(i) * 64
		ms[i] = pcp.Metric{
			Name: fmt.Sprintf("bench.metric.%02d", i),
			Read: func(simtime.Time) (uint64, error) { return v, nil },
		}
	}
	clock := simtime.NewClock()
	d, err := pcp.NewDaemon(clock, 10*simtime.Millisecond, ms)
	if err != nil {
		b.Fatal(err)
	}
	upstream, err := d.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	p := New(Config{
		Upstream: upstream,
		Clock:    clock,
		Interval: 10 * simtime.Millisecond,
		Timeout:  2 * time.Second,
	})
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	return p, addr
}

var benchPMIDs = []uint32{1, 2, 3, 4, 5, 6, 7, 8}

// BenchmarkProxyFetchInProcess is the coalesced-hit hot path on one
// goroutine: the simulated clock never advances, so after the first
// round trip every fetch is served from the interval cache.
func BenchmarkProxyFetchInProcess(b *testing.B) {
	p, _ := benchRig(b)
	if _, err := p.Fetch(benchPMIDs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Fetch(benchPMIDs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelProxyFetch hammers the coalescing cache from
// GOMAXPROCS goroutines, all asking for the same pmid set — the
// worst case for a serialized cache, the common case in production
// (every dashboard fetches the same metrics). Run with -cpu 1,2,4,8.
func BenchmarkParallelProxyFetch(b *testing.B) {
	p, _ := benchRig(b)
	if _, err := p.Fetch(benchPMIDs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := p.Fetch(benchPMIDs); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelProxyTCP is the full fan-out path over real
// sockets: one client connection per worker, all coalescing onto the
// proxy's cache.
func BenchmarkParallelProxyTCP(b *testing.B) {
	_, addr := benchRig(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		c, err := pcp.Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		var res pcp.FetchResult
		for pb.Next() {
			if err := c.FetchInto(benchPMIDs, &res); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestProxyFetchIntoTCPDoesNotAllocate pins the zero-alloc proxied
// round trip: a warm pipelined FetchInto answered from the proxy's
// interval cache over loopback TCP allocates nothing on either side.
func TestProxyFetchIntoTCPDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates in sync.Pool and channel operations")
	}
	_, _, _, _, addr := rig(t, nil)
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var res pcp.FetchResult
	if err := c.FetchInto(benchPMIDs, &res); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := c.FetchInto(benchPMIDs, &res); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("proxied loopback FetchInto allocates %.1f objects per round trip, want 0", got)
	}
}
