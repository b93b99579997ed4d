package chaos

import (
	"fmt"
	"strings"

	"papimc/internal/sweep"
)

// Verdict is the part of every suite's trial outcome the shared runner
// owns: which trial ran, its seed substream, and the invariant
// violations it found. Each suite's trial type embeds it.
type Verdict struct {
	Index      int
	Seed       uint64
	Violations []string
}

// violate records one invariant violation.
func (v *Verdict) violate(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

// verdict exposes the embedded Verdict to the generic Results methods.
func (v Verdict) verdict() Verdict { return v }

// outcome is one suite's trial type: an embedded Verdict plus the
// suite's own report lines.
type outcome interface {
	verdict() Verdict
	writeReport(b *strings.Builder)
}

// Results is a whole chaos run: the options it ran with (defaults
// applied) and every trial's outcome in index order. Report,
// ClusterReport and OverloadReport are its three instances.
type Results[O any, T outcome] struct {
	Opts   O
	Trials []T
}

// Verdicts returns every trial's verdict in report order.
func (r *Results[O, T]) Verdicts() []Verdict {
	vs := make([]Verdict, len(r.Trials))
	for i, t := range r.Trials {
		vs[i] = t.verdict()
	}
	return vs
}

// Failed reports whether any trial violated an invariant.
func (r *Results[O, T]) Failed() bool {
	for _, v := range r.Verdicts() {
		if len(v.Violations) > 0 {
			return true
		}
	}
	return false
}

// String renders the deterministic per-trial report: each trial's own
// lines, then its violations. Two runs with the same options produce
// byte-identical output at any worker count.
func (r *Results[O, T]) String() string {
	var b strings.Builder
	for _, t := range r.Trials {
		t.writeReport(&b)
		for _, v := range t.verdict().Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	return b.String()
}

// runTrials is the seeded trial runner under every suite. Trial i runs
// body with the Verdict {i, sweep.Seed(seed, i)}, from which the body
// derives all of its randomness. replay >= 0 runs only that trial — the
// repro path for a failure line; otherwise all trials run on up to
// workers goroutines via sweep.Map, reassembled in index order, so the
// report is the same at any worker count. The error is only for harness
// failures; violations travel in the trials' verdicts.
func runTrials[O any, T outcome](o O, seed uint64, trials, replay, workers int, body func(O, Verdict) (T, error)) (*Results[O, T], error) {
	trial := func(i int) (T, error) {
		return body(o, Verdict{Index: i, Seed: sweep.Seed(seed, i)})
	}
	var ts []T
	if replay >= 0 {
		t, err := trial(replay)
		if err != nil {
			return nil, err
		}
		ts = []T{t}
	} else {
		var err error
		if ts, err = sweep.Map(trials, workers, trial); err != nil {
			return nil, err
		}
	}
	return &Results[O, T]{Opts: o, Trials: ts}, nil
}
