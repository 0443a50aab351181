// Command perfbench is bond's end-to-end serving benchmark. It serves
// generated data from bondd's serving layer (internal/server) — one node,
// or three shards behind the coordinator (internal/shard) — over
// loopback in this one process, loads it from at most two client
// connections, checks every answer, and prints every metric by name and
// unit. The last line of its output is the result object.
//
//	perfbench --workload scan-single --seed 1 --seconds 10 --trace 0
//	perfbench --compare a.json b.json
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"bond/internal/kernel"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "scan-single, skip-sharded or churn-single")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds of the run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	dir := fs.String("dir", ".bench_build", "directory the run's data directories are made under")
	report := fs.String("report", "", "also write the stamped report to this file")
	compare := fs.Bool("compare", false, "compare the two report files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: *dir, sizes: fullSizes, setups: 5}
	if cfg.trace {
		cfg.setups = 1
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	st := newStamp(cfg)
	fmt.Fprintf(stdout, "stamp %s\n", mustJSON(st))
	for _, line := range res.info {
		fmt.Fprintln(stdout, line)
	}
	correct := res.t.wrong.Load() == 0
	printed := res.metrics
	if cfg.trace {
		printed = res.layer
	}
	line := mustJSON(resultLine{
		Correct:   correct,
		Attempted: res.t.attempted.Load(),
		Failed:    res.t.failed.Load(),
		Metrics:   printed,
	})
	if *report != "" {
		rep := mustJSON(reportFile{Stamp: st, Result: line, Info: res.info})
		if err := os.WriteFile(*report, rep, 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong answers\n", res.t.wrong.Load())
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// stamp records what a result depends on besides the code: results with
// different stamps are not compared.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SIMD       string  `json:"simd"`
	Backing    string  `json:"segment_backing"`
	Fsync      string  `json:"fsync"`
	GoVersion  string  `json:"go_version"`
}

func newStamp(cfg config) stamp {
	backing := "mmap"
	if os.Getenv("BOND_NO_MMAP") != "" {
		backing = "heap"
	}
	return stamp{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), SIMD: kernel.SIMD(),
		Backing: backing, Fsync: serverConfig(cfg.workload, "").Fsync.String(), GoVersion: runtime.Version(),
	}
}

type reportFile struct {
	Stamp  stamp           `json:"stamp"`
	Result json.RawMessage `json:"result"`
	Info   []string        `json:"info"`
}

// compareReports prints b/a for every metric of two reports, and refuses
// when their stamps differ.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	var reps [2]reportFile
	var res [2]resultLine
	for i, p := range []string{pathA, pathB} {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &reps[i])
		}
		if err == nil {
			err = json.Unmarshal(reps[i].Result, &res[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	if reps[0].Stamp != reps[1].Stamp {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: stamps differ\n  %s\n  %s\n",
			mustJSON(reps[0].Stamp), mustJSON(reps[1].Stamp))
		return 3
	}
	names := make([]string, 0, len(res[0].Metrics))
	for name := range res[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	w := bufio.NewWriter(stdout)
	for _, name := range names {
		a, b := res[0].Metrics[name], res[1].Metrics[name]
		ratio := "n/a"
		if a.Value != 0 {
			ratio = strconv.FormatFloat(b.Value/a.Value, 'f', 4, 64)
		}
		fmt.Fprintf(w, "%-34s %14.4f %14.4f  b/a=%s %s\n", name, a.Value, b.Value, ratio, a.Unit)
	}
	w.Flush()
	return 0
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	return procField("/proc/self/status", "VmHWM:") / 1024
}

// ioWriteBytes reads the bytes this process has caused to be written to
// storage.
func ioWriteBytes() int64 {
	return int64(procField("/proc/self/io", "write_bytes:"))
}

func procField(path, key string) float64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return v
		}
	}
	return 0
}

// pct is the p-th percentile of xs, interpolating between closest
// ranks; 0 for no samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
