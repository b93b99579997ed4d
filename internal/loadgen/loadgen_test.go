package loadgen

import (
	"errors"
	"strings"
	"testing"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/testutil"
)

// testDaemon builds a daemon with synthetic metrics via the shared
// testutil bed and returns it plus its TCP address.
func testDaemon(t *testing.T) (*pcp.Daemon, string) {
	t.Helper()
	return testutil.StartSyntheticDaemon(t, 8)
}

// TestLiveClosedLoop drives real wall-clock load against the daemon over
// TCP — the smoke path CI exercises via cmd/pcploadgen.
func TestLiveClosedLoop(t *testing.T) {
	_, addr := testDaemon(t)
	r, err := Run(DialFactory(addr), Options{
		Mode:    Closed,
		Workers: 4,
		Ops:     50,
		PMIDs:   []uint32{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 200 || r.Errors != 0 {
		t.Errorf("ops=%d errs=%d, want 200/0", r.Ops, r.Errors)
	}
	if r.Throughput <= 0 || r.P50 <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
}

// TestSharedFactoryInProcess runs the generator against the daemon's
// in-process Fetch, no sockets involved.
func TestSharedFactoryInProcess(t *testing.T) {
	d, _ := testDaemon(t)
	f := SharedFactory(FetchFunc(func(pmids []uint32) (pcp.FetchResult, error) {
		return d.Fetch(pmids), nil
	}))
	r, err := Run(f, Options{Workers: 2, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 200 {
		t.Errorf("ops = %d, want 200", r.Ops)
	}
}

func TestOptionValidation(t *testing.T) {
	f := SharedFactory(FetchFunc(func([]uint32) (pcp.FetchResult, error) {
		return pcp.FetchResult{}, nil
	}))
	if _, err := Run(f, Options{Mode: Open}); err == nil {
		t.Error("open loop without a rate should fail")
	}
	// Without Ops the run is bounded by Duration instead.
	r, err := Run(f, Options{Duration: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Elapsed < 20*time.Millisecond {
		t.Errorf("duration-bounded run: ops=%d elapsed=%v, want >0 ops over >=20ms", r.Ops, r.Elapsed)
	}
}

// TestRateValidationTyped: a zero or negative rate is rejected with the
// typed ErrRate — including a negative rate in closed loop, which used
// to ride along silently because closed loop never reads Rate.
func TestRateValidationTyped(t *testing.T) {
	f := SharedFactory(FetchFunc(func([]uint32) (pcp.FetchResult, error) {
		return pcp.FetchResult{}, nil
	}))
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"open zero rate", Options{Mode: Open, Ops: 10}},
		{"open negative rate", Options{Mode: Open, Rate: -5, Ops: 10}},
		{"closed negative rate", Options{Mode: Closed, Rate: -1, Ops: 10}},
	} {
		_, err := Run(f, tc.o)
		if !errors.Is(err, ErrRate) {
			t.Errorf("%s: err = %v, want ErrRate", tc.name, err)
		}
	}
	// A closed loop that never set Rate must keep working.
	if _, err := Run(f, Options{Mode: Closed, Ops: 5}); err != nil {
		t.Errorf("closed loop with zero rate rejected: %v", err)
	}
}

func TestReportShape(t *testing.T) {
	_, addr := testDaemon(t)
	rs, err := Sweep(DialFactory(addr), []int{1, 2}, Options{
		Ops: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(rs)
	for _, want := range []string{"workers", "p99.9", "closed"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
