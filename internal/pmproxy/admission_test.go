package pmproxy

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// admitStep is one admission decision in a policy table: the request
// and whether it must admit.
type admitStep struct {
	now      int64 // nanoseconds
	tenant   uint32
	cost     int
	priority int
	admit    bool
}

// runPolicyTable drives a policy through a step sequence, checking every
// decision and that every rejection is typed.
func runPolicyTable(t *testing.T, pol Policy, steps []admitStep) {
	t.Helper()
	for i, s := range steps {
		cost := s.cost
		if cost == 0 {
			cost = 1
		}
		err := pol.Admit(AdmitRequest{Tenant: s.tenant, Cost: cost, Priority: s.priority, Now: s.now})
		if (err == nil) != s.admit {
			t.Fatalf("step %d (%+v): err = %v, want admit=%v", i, s, err, s.admit)
		}
		if err != nil && !IsShed(err) {
			t.Fatalf("step %d: rejection %v is not typed ErrAdmissionRejected", i, err)
		}
	}
}

func TestAlwaysAdmitPolicy(t *testing.T) {
	pol, err := NewPolicy("always-admit", AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]admitStep, 0, 100)
	for i := 0; i < 100; i++ {
		steps = append(steps, admitStep{tenant: uint32(i % 3), admit: true})
	}
	runPolicyTable(t, pol, steps)
}

func TestRejectAllPolicy(t *testing.T) {
	pol, err := NewPolicy("reject-all", AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runPolicyTable(t, pol, []admitStep{
		{tenant: 0, admit: false},
		{tenant: 1, cost: 5, admit: false},
		{now: 1e12, tenant: 2, admit: false},
	})
	if err := pol.Admit(AdmitRequest{Cost: 1}); !errors.Is(err, pcp.ErrOverload) {
		t.Fatalf("reject-all rejection must chain to pcp.ErrOverload, got %v", err)
	}
}

// TestTokenBucketPolicy pins the refill boundaries: a bucket starts
// full, refills at Rate from Now deltas only, caps at Burst, and a
// zero-rate tenant is always shed.
func TestTokenBucketPolicy(t *testing.T) {
	const sec = int64(1e9)
	cfg := AdmissionConfig{
		Tenants: map[uint32]TenantConfig{
			1: {Rate: 2, Burst: 3},
			2: {Rate: 0}, // zero quota: always shed
			3: {Rate: 0.5},
		},
		Default: TenantConfig{Rate: 1},
	}
	pol, err := NewPolicy("token-bucket", cfg)
	if err != nil {
		t.Fatal(err)
	}
	runPolicyTable(t, pol, []admitStep{
		// Tenant 1 starts with a full burst-3 bucket at t=0.
		{now: 0, tenant: 1, admit: true},
		{now: 0, tenant: 1, admit: true},
		{now: 0, tenant: 1, admit: true},
		{now: 0, tenant: 1, admit: false}, // bucket empty, no time passed
		// Half a second refills exactly one token (rate 2/s).
		{now: sec / 2, tenant: 1, admit: true},
		{now: sec / 2, tenant: 1, admit: false},
		// A long idle stretch caps at Burst, not Rate*dt.
		{now: 100 * sec, tenant: 1, cost: 3, admit: true},
		{now: 100 * sec, tenant: 1, admit: false},
		// Zero-rate tenant is shed even on its first request.
		{now: 0, tenant: 2, admit: false},
		{now: 1000 * sec, tenant: 2, admit: false},
		// Burst defaults to max(Rate, 1): rate 0.5 still gets one token.
		{now: 0, tenant: 3, admit: true},
		{now: 0, tenant: 3, admit: false},
		// Unknown tenants use Default (rate 1, burst 1).
		{now: 0, tenant: 42, admit: true},
		{now: 0, tenant: 42, admit: false},
		{now: sec, tenant: 42, admit: true},
	})

	// A cost above the burst can never admit; an exact-burst cost drains
	// the bucket in one decision.
	fresh, err := NewPolicy("token-bucket", cfg)
	if err != nil {
		t.Fatal(err)
	}
	runPolicyTable(t, fresh, []admitStep{
		{now: 0, tenant: 1, cost: 4, admit: false},
		{now: 0, tenant: 1, cost: 3, admit: true},
		{now: 0, tenant: 1, admit: false},
	})
}

// TestPriorityPolicy pins the inversion-free shed ordering: as the
// shared level rises, priority 3 sheds first (quarter of the bucket),
// priority 0 last (the whole bucket), and draining readmits in the same
// order.
func TestPriorityPolicy(t *testing.T) {
	const sec = int64(1e9)
	pol, err := NewPolicy("priority", AdmissionConfig{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	runPolicyTable(t, pol, []admitStep{
		// Ceilings at depth 4: p3→1, p2→2, p1→3, p0→4.
		{now: 0, priority: 3, admit: true},  // level 1 == p3 ceiling
		{now: 0, priority: 3, admit: false}, // p3 full
		{now: 0, priority: 2, admit: true},  // level 2
		{now: 0, priority: 2, admit: false},
		{now: 0, priority: 1, admit: true}, // level 3
		{now: 0, priority: 1, admit: false},
		{now: 0, priority: 0, admit: true}, // level 4: bucket full
		{now: 0, priority: 0, admit: false},
		// Draining 1 token (0.25s at capacity 4/s) readmits only p0:
		// the high priority recovers first — no inversion.
		{now: sec / 4, priority: 3, admit: false},
		{now: sec / 4, priority: 1, admit: false},
		{now: sec / 4, priority: 0, admit: true},
		// Out-of-range priorities clamp into [0, 3].
		{now: sec / 4, priority: -5, admit: false}, // behaves as p0 (bucket refull)
		{now: 10 * sec, priority: 9, admit: true},  // fully drained; behaves as p3
		{now: 10 * sec, priority: 9, admit: false},
	})

	// Zero capacity disables priority shedding entirely.
	open, err := NewPolicy("priority", AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := open.Admit(AdmitRequest{Cost: 10, Priority: 3}); err != nil {
			t.Fatalf("unprovisioned priority policy shed request %d: %v", i, err)
		}
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	for _, want := range []string{"always-admit", "priority", "reject-all", "token-bucket"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("PolicyNames() = %v, missing %q", names, want)
		}
	}
	if _, err := NewPolicy("no-such-policy", AdmissionConfig{}); err == nil {
		t.Fatal("unknown policy name must error")
	} else if !strings.Contains(err.Error(), "no-such-policy") {
		t.Fatalf("unknown-policy error %q does not name the policy", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterPolicy must panic")
		}
	}()
	RegisterPolicy("always-admit", func(AdmissionConfig) Policy { return alwaysAdmit{} })
}

// TestTokenBucketCountingOracle stresses concurrent Admit against the
// exact oracle: at a frozen clock a burst-B bucket admits exactly
// floor(B) cost-1 requests no matter how the admits interleave. Run
// with -race this also proves the policy is data-race free.
func TestTokenBucketCountingOracle(t *testing.T) {
	const burst = 1000
	pol, err := NewPolicy("token-bucket", AdmissionConfig{
		Default: TenantConfig{Rate: 1e-9, Burst: burst},
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const perWorker = 125 // 2000 attempts against 1000 tokens
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := pol.Admit(AdmitRequest{Tenant: 7, Cost: 1, Now: 1})
				if err == nil {
					admitted.Add(1)
				} else if IsShed(err) {
					shed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != burst {
		t.Errorf("admitted %d, oracle says exactly %d", admitted.Load(), burst)
	}
	if admitted.Load()+shed.Load() != workers*perWorker {
		t.Errorf("admitted+shed = %d, want %d (every rejection typed)",
			admitted.Load()+shed.Load(), workers*perWorker)
	}
}

// startQoSBed builds a daemon+proxy pair with a token-bucket admission
// table: tenant 1 has quota, tenant 2 is quota-less but degradable,
// everyone else (including the default tenant) is quota-less and hard.
func startQoSBed(t *testing.T) (nestBed, *Proxy, string) {
	t.Helper()
	bed := startNestDaemon(t, sampleInterval)
	p := New(Config{
		Upstream:   bed.Addr,
		Clock:      bed.Clock,
		Interval:   sampleInterval,
		MaxRetries: 1,
		Admission: AdmissionConfig{
			Policy: "token-bucket",
			Tenants: map[uint32]TenantConfig{
				1: {Rate: 1000},
				2: {Rate: 0, Degradable: true},
			},
			Default: TenantConfig{Rate: 0},
		},
	})
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return bed, p, addr
}

// TestTenantConservation pins the per-tenant accounting law — every
// issued fetch set lands in exactly one of Admitted, Shed, StaleServed —
// across cache hits, policy sheds, degradable stale serves, and
// upstream-down stale serves, and the regression that the aggregate
// StaleServes/Shed counters equal the per-tenant sums.
func TestTenantConservation(t *testing.T) {
	bed, p, _ := startQoSBed(t)
	setA := []uint32{1}
	setB := []uint32{2}

	// Tenant 1 (quota'd) warms set A with a real upstream round trip.
	if _, err := p.FetchTenant(1, setA); err != nil {
		t.Fatal(err)
	}
	// Tenant 2 has no quota, but a fresh cache hit is never gated:
	// quotas meter upstream work, and a hit costs none.
	if _, err := p.FetchTenant(2, setA); err != nil {
		t.Fatalf("fresh cache hit was gated: %v", err)
	}

	bed.Clock.Advance(sampleInterval + simtime.Millisecond)

	// Stale cache + no quota + degradable: served stale, not rejected.
	if _, err := p.FetchTenant(2, setA); err != nil {
		t.Fatalf("degradable shed with cache must serve stale, got %v", err)
	}
	// No cache to degrade to: a counted, typed shed.
	if _, err := p.FetchTenant(2, setB); !IsShed(err) {
		t.Fatalf("uncached quota-less fetch: err = %v, want typed shed", err)
	}
	// Tenant 3 is not degradable: shed even though set A is cached.
	if _, err := p.FetchTenant(3, setA); !IsShed(err) {
		t.Fatalf("hard tenant shed: err = %v, want typed shed", err)
	}
	// Tenant 1's batch of two stale sets costs 2 tokens and admits.
	if _, err := p.FetchBatchTenant(1, [][]uint32{setA, setB}); err != nil {
		t.Fatal(err)
	}

	// Upstream down: tenant 1 is admitted by policy but degrades to a
	// stale serve, which must count in both scopes.
	bed.Daemon.Close()
	bed.Clock.Advance(sampleInterval + simtime.Millisecond)
	if _, err := p.FetchTenant(1, setA); err != nil {
		t.Fatalf("stale fallback with upstream down: %v", err)
	}

	want := map[uint32]TenantStats{
		1: {Tenant: 1, Issued: 4, Admitted: 3, StaleServed: 1},
		2: {Tenant: 2, Issued: 3, Admitted: 1, Shed: 1, StaleServed: 1},
		3: {Tenant: 3, Issued: 1, Shed: 1},
	}
	all := p.TenantStatsAll()
	if len(all) != len(want) {
		t.Fatalf("TenantStatsAll() = %+v, want %d tenants", all, len(want))
	}
	var sumShed, sumStale int64
	for _, ts := range all {
		w, ok := want[ts.Tenant]
		if !ok || ts != w {
			t.Errorf("tenant %d stats = %+v, want %+v", ts.Tenant, ts, w)
		}
		if ts.Issued != ts.Admitted+ts.Shed+ts.StaleServed {
			t.Errorf("tenant %d violates conservation: %+v", ts.Tenant, ts)
		}
		sumShed += ts.Shed
		sumStale += ts.StaleServed
	}
	st := p.Stats()
	if st.Shed != sumShed {
		t.Errorf("aggregate Shed = %d, per-tenant sum = %d", st.Shed, sumShed)
	}
	if st.StaleServes != sumStale {
		t.Errorf("aggregate StaleServes = %d, per-tenant sum = %d", st.StaleServes, sumStale)
	}
	if got := p.TenantStatsFor(99); got != (TenantStats{Tenant: 99}) {
		t.Errorf("unseen tenant stats = %+v, want zero", got)
	}
}

// TestTenantWirePath proves the QoS surface end to end over the wire:
// a Version3 client's tenant tag selects its quota, sheds come back as
// typed pcp.ErrOverload, a degradable tenant silently gets stale data,
// and Version1 peers see exactly the plain errors they always did.
func TestTenantWirePath(t *testing.T) {
	bed, p, addr := startQoSBed(t)
	setA := []uint32{1}

	// Quota-less tenant 3 over a Version3 connection: typed overload.
	c3, err := pcp.DialTenant(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	_, err = c3.Fetch(setA)
	if !errors.Is(err, pcp.ErrOverload) {
		t.Fatalf("shed over wire: err = %v, want pcp.ErrOverload", err)
	}
	var se *pcp.StatusError
	if !errors.As(err, &se) || se.Status != pcp.StatusOverload {
		t.Fatalf("shed over wire: err = %v, want *StatusError{StatusOverload}", err)
	}

	// Tenant 1 warms the cache; tenant 2 (degradable) then gets the
	// stale answer once it ages out, with no client-visible error.
	c1, err := pcp.DialTenant(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	warm, err := c1.Fetch(setA)
	if err != nil {
		t.Fatal(err)
	}
	bed.Clock.Advance(sampleInterval + simtime.Millisecond)
	c2, err := pcp.DialTenant(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	stale, err := c2.Fetch(setA)
	if err != nil {
		t.Fatalf("degradable tenant must get stale data, not %v", err)
	}
	if stale.Timestamp != warm.Timestamp {
		t.Errorf("stale answer timestamp %d, want original %d", stale.Timestamp, warm.Timestamp)
	}
	if got := p.TenantStatsFor(2); got.StaleServed != 1 {
		t.Errorf("tenant 2 stats = %+v, want StaleServed 1", got)
	}

	// A Version1 peer carries no tenant: it accounts to the quota-less
	// default tenant and sees a plain error PDU — no typed status, no
	// behaviour change on the old wire.
	c, err := pcp.DialMax(addr, pcp.Version1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Fetch([]uint32{7, 8}) // distinct set: never cache-hits
	if err == nil {
		t.Fatal("v1 quota-less fetch must fail")
	}
	if errors.Is(err, pcp.ErrOverload) {
		t.Error("v1 peer got a typed overload; the old wire must see plain errors")
	}
	if !strings.Contains(err.Error(), "admission rejected") {
		t.Errorf("v1 error %q does not carry the rejection message", err)
	}
	if got := p.TenantStatsFor(DefaultTenant); got.Shed != 1 {
		t.Errorf("default tenant stats = %+v, want Shed 1", got)
	}
}
