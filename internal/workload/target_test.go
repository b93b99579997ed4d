package workload

import (
	"testing"

	"papimc/internal/simtime"
)

// TestSimTargetQueueing pins the service model's queueing arithmetic:
// a request starts on the earliest-free slot, at its arrival or when
// that slot frees up, and holds it for Base·Size/SizeRef. Latency runs
// from the arrival, so queueing delay is included. The overload chaos
// suite's modelled upstream is the one-slot case.
func TestSimTargetQueueing(t *testing.T) {
	const us = int64(simtime.Microsecond)
	for _, tc := range []struct {
		name     string
		servers  int
		arrivals []int64 // µs
		sizes    []int   // nil means 1 each
		want     []int64 // latency, µs
	}{
		{"one slot", 1, []int64{0, 100, 1000}, nil, []int64{500, 900, 500}},
		{"two slots", 2, []int64{0, 100, 200, 1000}, nil, []int64{500, 500, 800, 500}},
		{"size scales service", 1, []int64{0, 0}, []int{3, 1}, []int64{1500, 2000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewSimTarget(&Spec{Server: ServerSpec{
				Servers: tc.servers, Base: 500 * simtime.Microsecond, SizeRef: 1,
			}})
			for i, at := range tc.arrivals {
				size := 1
				if tc.sizes != nil {
					size = tc.sizes[i]
				}
				out := st.Do(Request{T: simtime.Time(at * us), Seq: int64(i), Size: size})
				if out.Err || out.Lat != tc.want[i]*us {
					t.Errorf("request %d at %dµs: latency %dns err=%v, want %dµs",
						i, at, out.Lat, out.Err, tc.want[i])
				}
			}
		})
	}
}
