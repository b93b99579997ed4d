// Command perfbench is the repository's benchmark. It drives one of
// its workloads through the public constructors of node, papi, pcp,
// pmproxy, cluster, archive and metricql, checks every answer, and
// prints one JSON result as its last line of output:
//
//	perfbench --workload papi-pcp-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced run, and the
// spans of its first ops are written under the build directory. It is
// run from the repository root through run.sh, which builds it first.
package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// specs are the workloads BENCHMARK.json lists, in its order.
var specs = []spec{papiSpec, clusterSpec, archiveSpec}

// unlisted are workloads the program runs by name that BENCHMARK.json
// does not list, because on the current code they fail their own
// self-check: proxy-fanout serves answers older than a sample interval
// (see README.md). A run of one prints correct=false as it should.
var unlisted = []spec{proxySpec}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: "+specNames())
	seed := fl.Uint64("seed", 1, "seed every input is generated from")
	seconds := fl.Float64("seconds", 10, "measured seconds (split untraced/traced with --trace 1)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	all := slices.Concat(specs, unlisted)
	i := slices.IndexFunc(all, func(s spec) bool { return s.name == *workload })
	if i < 0 || *trace < 0 || *trace > 1 || !(*seconds > 0 && *seconds <= 600) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds in (0, 600], --trace 0|1\n", specNames())
		return 2
	}
	sp := all[i]
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	out, err := execute(sp, *seed, *seconds, *trace == 1, filepath.Join(buildDir, "traces"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, sp, *seed, *seconds, *trace, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func specNames() string {
	var names []string
	for _, s := range slices.Concat(specs, unlisted) {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// provenance is printed with every result.
type provenance struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Loaders    int      `json:"loader_goroutines"`
	Conns      int      `json:"client_connections"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Source     string   `json:"source_sha256"`
	Exercises  []string `json:"exercises"`
	Bypasses   []string `json:"bypasses"`
	FirstError string   `json:"first_error,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints the provenance, every metric by name with its unit,
// the waterfall of a traced run, and last the result line.
func report(w io.Writer, sp spec, seed uint64, seconds float64, trace int, out *outcome) error {
	src, err := sourceDigest(".")
	if err != nil {
		return err
	}
	prov := provenance{
		Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Loaders: sp.loaders, Conns: sp.conns, GoVersion: runtime.Version(),
		Commit: gitCommit(), Source: src,
		Exercises: sp.exercises, Bypasses: sp.bypasses, TraceFile: out.tracePath,
	}
	if out.firstErr != nil {
		prov.FirstError = out.firstErr.Error()
	}
	pj, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", pj)

	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "metric %-32s %16.6g %s\n", d.name, v, d.unit)
	}
	info := make([]string, 0, len(out.info))
	for name := range out.info {
		info = append(info, name)
	}
	slices.SortFunc(info, func(a, b string) int {
		return cmp.Or(cmp.Compare(infoRank(a), infoRank(b)), strings.Compare(a, b))
	})
	for _, name := range info {
		fmt.Fprintf(w, "info   %-32s %16.6g %s\n", name, out.info[name], unitOf(name))
	}
	for _, p := range out.waterfall {
		fmt.Fprintf(w, "waterfall %-48s %12.3f us\n", p.name, p.ns/1e3)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", rj)
	return nil
}

// infoRank orders info lines: the wall-clock end-to-end figures first.
func infoRank(name string) int {
	if slices.ContainsFunc(wallClock, func(d metricDef) bool { return d.name == name }) {
		return 0
	}
	return 1
}

// unitOf returns the unit a metric is reported in.
func unitOf(name string) string {
	for _, t := range [][]metricDef{endToEnd, wallClock, perLayer} {
		if i := slices.IndexFunc(t, func(d metricDef) bool { return d.name == name }); i >= 0 {
			return t[i].unit
		}
	}
	return ""
}

// sourceDigest hashes every Go source and module file under root, so a
// result names the exact code it measured even outside a git checkout.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitCommit reads the checked-out commit from .git, or returns
// "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(packed, []byte("\n")) {
		if id, name, ok := strings.Cut(string(line), " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
