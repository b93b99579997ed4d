package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkFile is the shape of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNameCharset(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(d.name) || !validUnit(d.unit) {
			t.Errorf("metric %q unit %q: not [A-Za-z0-9_.-] (unit also /%%)", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, s := range slices.Concat(specs, unlisted) {
		if !validName(s.name) || seen[s.name] {
			t.Errorf("workload name %q invalid or clashes with a metric", s.name)
		}
	}
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and has at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

func validUnit(u string) bool {
	if len(u) == 0 || len(u) > 16 {
		return false
	}
	for _, c := range []byte(u) {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '/' || c == '%' || c == '.' || c == '-') {
			return false
		}
	}
	return true
}

// TestBenchmarkFileMatchesTables: BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, program has %+v", i, m, endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %d: %+v, program has %+v", i, m, perLayer[i])
		}
	}
}
