package core_test

// The segmented search of this package runs through one executor,
// plan.Execute, which drives the per-segment primitives (SearchOneScratch,
// SearchCompressedOneScratch, ExactScanScratch, SegBound, LocalExclude).
// These tests pin that composition against a flat single-store search:
// identical answers across segments, synopsis skipping, parallel fan-out,
// and the empty and error cases.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/dataset"
	"bond/internal/plan"
	"bond/internal/quant"
	"bond/internal/seqscan"
	"bond/internal/topk"
	"bond/internal/vstore"
)

// segmentsOf exposes a segmented store to the planner, synopses and (for
// sealed segments) compressed codes included.
func segmentsOf(s *vstore.SegStore) []plan.Segment {
	segs, bases := s.Segments(), s.Bases()
	out := make([]plan.Segment, len(segs))
	for i, g := range segs {
		out[i] = plan.Segment{
			View:   core.SegmentView{Src: g, Base: bases[i], DimRange: g.DimRange},
			Sealed: g.Sealed(),
		}
		if g.Sealed() {
			g := g
			out[i].Codes = func() *vstore.QuantStore { return g.Codes(quant.NewUnit()) }
		}
	}
	return out
}

// search plans and executes one query over a segmented store with a
// forced strategy and optional parallelism hint.
func search(s *vstore.SegStore, q []float64, opts core.Options, strat plan.Strategy, parallel int) (plan.Result, error) {
	spec := plan.SpecFromOptions(q, opts)
	spec.Strategy = strat
	spec.Parallel = parallel
	p, err := plan.New(segmentsOf(s), spec, nil)
	if err != nil {
		return plan.Result{}, err
	}
	return plan.Execute(p)
}

// identicalResults demands byte-identical neighbor sets: same ids, same
// float64 scores, same order. Segmented BOND accumulates each candidate's
// score over the same dimension sequence as the flat engine, so not even
// last-ulp drift is tolerated.
func identicalResults(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d = {%d %v}, want {%d %v}",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// equivalentResults demands the same ids in the same order and scores
// within summation-order rounding: the exact scan accumulates dimensions
// in storage order, BOND in query order.
func equivalentResults(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s: rank %d = {%d %v}, want {%d %v}",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// segFixture builds the same collection twice: flat and segmented (with a
// few deletes sprinkled in so delete handling is part of every oracle).
func segFixture(n, dims, segSize int, seed int64) (*vstore.Store, *vstore.SegStore) {
	vs := dataset.CorelLike(n, dims, seed)
	flat := vstore.FromVectors(vs)
	seg := vstore.SegmentedFromVectors(vs, segSize)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n/20; i++ {
		id := rng.Intn(n)
		flat.Delete(id)
		seg.Delete(id)
	}
	return flat, seg
}

func TestSearchSegmentsMatchesFlatAllCriteria(t *testing.T) {
	flat, seg := segFixture(700, 32, 150, 11)
	queries := dataset.CorelLike(6, 32, 77)
	for _, crit := range []core.Criterion{core.Hq, core.Hh, core.Eq, core.Ev} {
		for qi, q := range queries {
			opts := core.Options{K: 9, Criterion: crit}
			want, err := core.Search(flat, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := search(seg, q, opts, plan.ForceBOND, 0)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, crit.String(), got.Results, want.Results)
			if got.Stats.SegmentsSearched+got.Stats.SegmentsSkipped == 0 {
				t.Fatalf("%s q%d: no segment accounting", crit, qi)
			}
		}
	}
}

// TestSearchSegmentsWeightedSubspaceExclude runs weighted, subspace and
// exclusion queries across segments under plain BOND and the exact scan;
// both must reproduce the flat engine's answer.
func TestSearchSegmentsWeightedSubspaceExclude(t *testing.T) {
	flat, seg := segFixture(500, 24, 128, 5)
	q := dataset.CorelLike(1, 24, 123)[0]
	w := dataset.WeightsZipf(24, 1.5, 9)
	excl := bitmap.New(flat.Len())
	for id := 0; id < flat.Len(); id += 7 {
		excl.Set(id)
	}
	cases := []struct {
		label string
		opts  core.Options
	}{
		{"weighted-Ev", core.Options{K: 7, Criterion: core.Ev, Weights: w}},
		{"weighted-Hq", core.Options{K: 7, Criterion: core.Hq, Weights: w}},
		{"subspace-Ev", core.Options{K: 7, Criterion: core.Ev, Dims: []int{1, 4, 9, 16}}},
		{"subspace-Hq", core.Options{K: 7, Criterion: core.Hq, Dims: []int{0, 2, 3, 11, 20}}},
		{"excluded-Hq", core.Options{K: 7, Criterion: core.Hq, Exclude: excl}},
		{"excluded-Ev", core.Options{K: 7, Criterion: core.Ev, Exclude: excl}},
		{"adaptive", core.Options{K: 7, Criterion: core.Hq, AdaptiveStep: true}},
		{"step1", core.Options{K: 7, Criterion: core.Ev, Step: 1}},
	}
	for _, c := range cases {
		want, err := core.Search(flat, q, c.opts)
		if err != nil {
			t.Fatal(c.label, err)
		}
		got, err := search(seg, q, c.opts, plan.ForceBOND, 0)
		if err != nil {
			t.Fatal(c.label, err)
		}
		identicalResults(t, c.label, got.Results, want.Results)
		exact, err := search(seg, q, c.opts, plan.ForceExact, 0)
		if err != nil {
			t.Fatal(c.label, err)
		}
		equivalentResults(t, c.label+"/exact", exact.Results, want.Results)
	}
}

func TestSearchSegmentsParallelMatchesFlat(t *testing.T) {
	flat, seg := segFixture(640, 16, 100, 21)
	q := dataset.CorelLike(1, 16, 3)[0]
	for _, crit := range []core.Criterion{core.Hq, core.Ev} {
		opts := core.Options{K: 10, Criterion: crit}
		want, err := core.Search(flat, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := search(seg, q, opts, plan.ForceBOND, 4)
		if err != nil {
			t.Fatal(err)
		}
		nonEmpty := 0
		for _, g := range seg.Segments() {
			if g.Len() > 0 {
				nonEmpty++
			}
		}
		identicalResults(t, "parallel-"+crit.String(), got.Results, want.Results)
		if got.Stats.SegmentsSearched != nonEmpty {
			t.Fatalf("searched %d segments, want %d", got.Stats.SegmentsSearched, nonEmpty)
		}
	}
}

// TestSearchParallelRangeShardsMatchSearch fans contiguous id ranges out in
// parallel under an exclusion bitmap, for every criterion.
func TestSearchParallelRangeShardsMatchSearch(t *testing.T) {
	flat, seg := segFixture(530, 16, 133, 31)
	q := dataset.CorelLike(1, 16, 8)[0]
	excl := bitmap.New(flat.Len())
	excl.Set(2)
	excl.Set(333)
	for _, crit := range []core.Criterion{core.Hq, core.Hh, core.Eq, core.Ev} {
		opts := core.Options{K: 8, Criterion: crit, Exclude: excl}
		want, err := core.Search(flat, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := search(seg, q, opts, plan.ForceBOND, 4)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, "shards-"+crit.String(), got.Results, want.Results)
	}
}

func TestSearchParallelMatchesSerial(t *testing.T) {
	vs := dataset.CorelLike(2000, 64, 1234)
	flat := vstore.FromVectors(vs)
	queries, _ := dataset.SampleQueries(vs, 4, 71)
	for _, shards := range []int{1, 2, 3, 7} {
		seg := vstore.SegmentedFromVectors(vs, (len(vs)+shards-1)/shards)
		for _, crit := range []core.Criterion{core.Hq, core.Ev} {
			for _, q := range queries {
				opts := core.Options{K: 10, Criterion: crit}
				par, err := search(seg, q, opts, plan.ForceBOND, shards)
				if err != nil {
					t.Fatalf("shards=%d %v: %v", shards, crit, err)
				}
				ser, err := core.Search(flat, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				identicalResults(t, crit.String(), par.Results, ser.Results)
			}
		}
	}
}

func TestSearchParallelMoreShardsThanVectors(t *testing.T) {
	vs := dataset.CorelLike(5, 8, 1)
	res, err := search(vstore.SegmentedFromVectors(vs, 1), vs[0],
		core.Options{K: 3, Criterion: core.Hq}, plan.ForceBOND, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := seqscan.SearchHistogram(vs, vs[0], 3)
	equivalentResults(t, "tiny", res.Results, want)
}

func TestSearchParallelRespectsExclude(t *testing.T) {
	vs := dataset.CorelLike(100, 8, 2)
	excl := bitmap.New(100)
	excl.Set(0)
	res, err := search(vstore.SegmentedFromVectors(vs, 25), vs[0],
		core.Options{K: 1, Criterion: core.Hq, Exclude: excl}, plan.ForceBOND, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].ID == 0 {
		t.Error("excluded id returned by parallel search")
	}
}

func TestSearchParallelAllExcluded(t *testing.T) {
	vs := dataset.CorelLike(10, 8, 3)
	excl := bitmap.NewFull(10)
	for _, strat := range []plan.Strategy{plan.Auto, plan.ForceBOND, plan.ForceCompressed, plan.ForceExact} {
		_, err := search(vstore.SegmentedFromVectors(vs, 3), vs[0],
			core.Options{K: 1, Criterion: core.Hq, Exclude: excl}, strat, 4)
		if !errors.Is(err, core.ErrNoCandidates) {
			t.Errorf("%v: err = %v, want ErrNoCandidates", strat, err)
		}
	}
}

func TestSearchParallelBadOptions(t *testing.T) {
	vs := dataset.CorelLike(10, 8, 3)
	_, err := search(vstore.SegmentedFromVectors(vs, 3), vs[0],
		core.Options{K: 0, Criterion: core.Hq}, plan.ForceBOND, 4)
	if !errors.Is(err, core.ErrBadK) {
		t.Errorf("err = %v, want ErrBadK", err)
	}
}

func TestProgressiveSegmentsMatchesFlat(t *testing.T) {
	flat, seg := segFixture(420, 24, 90, 41)
	segs := segmentsOf(seg)
	views := make([]core.SegmentView, len(segs))
	for i, s := range segs {
		views[i] = s.View
	}
	q := dataset.CorelLike(1, 24, 12)[0]
	for _, crit := range []core.Criterion{core.Hq, core.Ev} {
		opts := core.Options{K: 6, Criterion: crit, Step: 5}
		want, err := core.Search(flat, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProgressiveSegments(views, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for p.Step() {
			steps++
			if p.NumCandidates() < opts.K {
				t.Fatalf("candidate set fell below k mid-search")
			}
		}
		res := p.Finish()
		identicalResults(t, "progressive-"+crit.String(), res.Results, want.Results)
		if steps == 0 {
			t.Fatal("progressive finished without stepping")
		}
	}
}

func TestCompressedSegmentsMatchesFlat(t *testing.T) {
	flat, seg := segFixture(560, 24, 128, 51)
	q := dataset.CorelLike(1, 24, 4)[0]
	qs := flat.Quantize(quant.NewUnit())
	for _, crit := range []core.Criterion{core.Hq, core.Eq} {
		opts := core.Options{K: 10, Criterion: crit}
		want, err := core.SearchCompressed(flat, qs, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := search(seg, q, opts, plan.ForceCompressed, 0)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, "compressed-"+crit.String(), got.Results, want.Results)
	}
}

// clusterContiguous builds data where each segment-sized block of vectors
// sits around its own cluster centre — the locality pattern (ingest by
// time or by class) that makes segment synopses selective.
func clusterContiguous(blocks, perBlock, dims int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, 0, blocks*perBlock)
	for b := 0; b < blocks; b++ {
		ctr := make([]float64, dims)
		for d := range ctr {
			ctr[d] = rng.Float64()
		}
		for i := 0; i < perBlock; i++ {
			v := make([]float64, dims)
			for d := range v {
				x := ctr[d] + rng.NormFloat64()*0.01
				if x < 0 {
					x = 0
				}
				if x > 1 {
					x = 1
				}
				v[d] = x
			}
			out = append(out, v)
		}
	}
	return out
}

func TestSearchSegmentsSkipsColdSegments(t *testing.T) {
	const blocks, perBlock, dims = 8, 100, 16
	vs := clusterContiguous(blocks, perBlock, dims, 17)
	flat := vstore.FromVectors(vs)
	seg := vstore.SegmentedFromVectors(vs, perBlock)
	q := vs[3] // deep inside block 0
	for _, crit := range []core.Criterion{core.Ev, core.Eq, core.Hq} {
		opts := core.Options{K: 5, Criterion: crit}
		want, err := core.Search(flat, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := search(seg, q, opts, plan.ForceBOND, 0)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, "skip-"+crit.String(), got.Results, want.Results)
		if got.Stats.SegmentsSkipped == 0 {
			t.Errorf("%s: no segments skipped on cluster-contiguous data", crit)
		}
		if got.Stats.SegmentsSearched+got.Stats.SegmentsSkipped < blocks {
			t.Errorf("%s: accounting: searched %d + skipped %d < %d segments",
				crit, got.Stats.SegmentsSearched, got.Stats.SegmentsSkipped, blocks)
		}
		if got.Stats.ValuesScanned >= want.Stats.ValuesScanned {
			t.Errorf("%s: segmented scanned %d values, flat scanned %d — skipping saved nothing",
				crit, got.Stats.ValuesScanned, want.Stats.ValuesScanned)
		}
	}
}

func TestSearchSegmentsEmptyAndErrorCases(t *testing.T) {
	seg := vstore.NewSegmented(4, 8)
	hq := core.Options{K: 3, Criterion: core.Hq}
	for _, strat := range []plan.Strategy{plan.Auto, plan.ForceBOND, plan.ForceExact} {
		if _, err := search(seg, []float64{1, 0, 0, 0}, hq, strat, 0); err != core.ErrNoCandidates {
			t.Fatalf("%v empty store: err = %v, want ErrNoCandidates", strat, err)
		}
	}
	seg.Append([]float64{0.1, 0.2, 0.3, 0.4})
	if _, err := search(seg, []float64{1, 0, 0}, hq, plan.ForceBOND, 0); !errors.Is(err, core.ErrQueryMismatch) {
		t.Fatalf("dimension mismatch: err = %v, want ErrQueryMismatch", err)
	}
	res, err := search(seg, []float64{1, 0, 0, 0}, core.Options{K: 5, Criterion: core.Hq}, plan.ForceBOND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("k beyond size: %d results, want 1", len(res.Results))
	}
}
