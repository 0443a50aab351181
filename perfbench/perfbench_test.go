package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"bond/internal/topk"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the program
// to: every declared metric must be printed, with the declared unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinySizes shrinks every workload to a few seconds' work.
var tinySizes = sizes{
	uniformN: 2048, skewedN: 2048,
	clusteredN: 1800, clusterRun: 150, shardSegSize: 50,
	churnN: 1200, churnClusters: 16,
	pool: 64,
}

func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 7, seconds: 1.2, trace: trace,
		dir: t.TempDir(), sizes: tinySizes, setups: 1})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if w, f := res.t.wrong.Load(), res.t.failed.Load(); w != 0 || f != 0 {
		t.Fatalf("%s: %d wrong answers, %d failed ops of %d:\n%v", workload, w, f, res.t.attempted.Load(), res.info)
	}
	return res
}

// TestTinyRuns runs every workload small, untraced and traced, and checks
// the oracle passed, nothing failed, and every metric BENCHMARK.json
// declares printed with its unit. scan-single runs too, though
// BENCHMARK.json does not list it.
func TestTinyRuns(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range []string{"scan-single", "skip-sharded", "churn-single"} {
		t.Run(w, func(t *testing.T) {
			res := tinyRun(t, w, false)
			for _, m := range spec.EndToEnd {
				got, ok := res.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.metrics) != len(spec.EndToEnd) {
				t.Errorf("printed %d end-to-end metrics, BENCHMARK.json declares %d", len(res.metrics), len(spec.EndToEnd))
			}
			if r := res.metrics["success_ratio"].Value; r != 1 {
				t.Errorf("success_ratio = %v, want 1", r)
			}

			res = tinyRun(t, w, true)
			for _, m := range spec.PerLayer {
				got, ok := res.layer[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.layer) != len(spec.PerLayer) {
				t.Errorf("printed %d per-layer metrics, BENCHMARK.json declares %d", len(res.layer), len(spec.PerLayer))
			}
		})
	}
}

// TestTraceTrees checks a traced sharded run: every child span lies
// inside its parent, coordinator → shard call → shard handler links
// exist, and along each request's critical path the layers' self times
// sum to no more than the root span's wall time.
func TestTraceTrees(t *testing.T) {
	res := tinyRun(t, "skip-sharded", true)
	ix := indexSpans(res.spans)
	if len(ix.roots) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range res.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := ix.byID[s.Parent]
		if !ok {
			t.Fatalf("span %s %d has unknown parent %d", s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			t.Errorf("%s [%d,%d] req %d not inside parent %s [%d,%d] req %d",
				s.Name, s.Start, s.End, s.Req, p.Name, p.Start, p.End, p.Req)
		}
	}
	linked := 0
	for _, root := range ix.roots {
		if root.Name != spanClientQuery {
			continue
		}
		self := map[string]int64{}
		ix.criticalSelf(root, self)
		var sum int64
		for _, v := range self {
			if v < 0 {
				t.Errorf("negative self time in request %d: %v", root.Req, self)
			}
			sum += v
		}
		if sum > root.dur() {
			t.Errorf("request %d: self times sum to %d ns, root wall time %d ns", root.Req, sum, root.dur())
		}
		for _, co := range ix.children[root.ID] {
			for _, call := range ix.children[co.ID] {
				for _, sh := range ix.children[call.ID] {
					if co.Name == spanCoord && call.Name == spanShardCall && sh.Name == spanShard {
						linked++
					}
				}
			}
		}
	}
	if linked == 0 {
		t.Fatal("no coordinator → shard call → shard handler chain in the trace")
	}
}

// TestSameAnswer pins the oracle comparison: ids must match rank by rank
// unless their scores tie within summation-order rounding.
func TestSameAnswer(t *testing.T) {
	want := []topk.Result{{ID: 4, Score: 1}, {ID: 9, Score: 2}, {ID: 2, Score: 2}, {ID: 7, Score: 3}}
	cases := []struct {
		name string
		got  []topk.Result
		ok   bool
	}{
		{"equal", want, true},
		{"rounding", []topk.Result{{ID: 4, Score: 1 + 1e-13}, {ID: 9, Score: 2}, {ID: 2, Score: 2}, {ID: 7, Score: 3}}, true},
		{"tie swapped", []topk.Result{{ID: 4, Score: 1}, {ID: 2, Score: 2}, {ID: 9, Score: 2}, {ID: 7, Score: 3}}, true},
		{"wrong id", []topk.Result{{ID: 5, Score: 1}, {ID: 9, Score: 2}, {ID: 2, Score: 2}, {ID: 7, Score: 3}}, false},
		{"wrong score", []topk.Result{{ID: 4, Score: 1}, {ID: 9, Score: 2}, {ID: 2, Score: 2}, {ID: 7, Score: 3.001}}, false},
		{"short", want[:3], false},
	}
	for _, c := range cases {
		if got := sameAnswer(wireNeighbors(c.got), want); got != c.ok {
			t.Errorf("%s: sameAnswer = %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestOpenLoopTiming pins how the open loop times its requests: one sent
// late behind a slow request counts the wait from its due time; one the
// generator slept for counts only its own time.
func TestOpenLoopTiming(t *testing.T) {
	t0 := time.Now()
	recs, lags := openLoop(100, t0, t0.Add(35*time.Millisecond), func(i int) (opRec, bool) {
		if i == 0 {
			time.Sleep(25 * time.Millisecond)
		}
		return opRec{end: time.Now()}, true
	})
	// Due at 0, 10, 20 and 30 ms.
	if len(recs) != 4 || len(lags) != 4 {
		t.Fatalf("%d records, %d lags, want 4 each", len(recs), len(lags))
	}
	if recs[1].latency < 15*time.Millisecond || lags[1] < 15*time.Millisecond {
		t.Errorf("request 1, due at 10 ms behind one that ran to 25 ms: latency %v, lag %v, want both >= 15ms",
			recs[1].latency, lags[1])
	}
	if recs[3].latency > 5*time.Millisecond {
		t.Errorf("request 3, sent on time after a sleep: latency %v, want its own time only", recs[3].latency)
	}
}
