package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"bond/internal/api"
	"bond/internal/seqscan"
	"bond/internal/topk"
)

const (
	dims      = 64
	k         = 10
	loadBatch = 500 // vectors per set-up ingest request
	batchSize = 32  // specs per /query/batch request
	writeRate = 25  // churn-single writes per second
	writeVecs = 16  // vectors per ingest write
	// maintEvery is how many acked churn writes separate two
	// RunMaintenance calls: a count, not a timer, so every run performs
	// the same maintenance sequence.
	maintEvery = 25
)

// coll is one served collection: its data, its query pool and, where the
// data stays fixed while it is read, the exact answers.
type coll struct {
	name      string
	criterion string
	strategy  string // the strategy queries ask for; "" = auto
	segSize   int    // 0 = the server default
	vectors   [][]float64
	queries   [][]float64
	oracle    [][]topk.Result // nil when the data changes while read
	largest   bool            // similarity criterion: higher scores rank first

	// Pre-encoded request bodies, so client-side JSON work stays out of
	// the measured loops: one per query, one per batch of batchSize
	// consecutive queries, one per set-up load batch.
	queryBodies [][]byte
	batchBodies [][]byte
	loadBodies  [][]byte
}

// writeOp is one churn write: an ingest of writeVecs vectors or the
// delete of one positional id.
type writeOp struct {
	del  bool
	id   int
	body []byte
}

// workloadData is everything a run generates from its seed before
// set-up: the program sees only these inputs.
type workloadData struct {
	colls []*coll
	// newVector draws one more vector from the write stream's
	// distribution (appended by ingest writes).
	newVector func(rng *rand.Rand) []float64
	// baseLen is the number of vectors the write stream's target
	// collection holds after set-up.
	baseLen int
}

// sizes are the data and pool sizes of a run; tests shrink them.
type sizes struct {
	uniformN, skewedN int
	clusteredN        int
	clusterRun        int // rows per cluster run in skip-sharded data
	shardSegSize      int
	churnN            int
	churnClusters     int
	pool              int // distinct queries per collection
}

var fullSizes = sizes{
	uniformN: 32768, skewedN: 32768,
	clusteredN: 24000, clusterRun: 1500, shardSegSize: 500,
	churnN: 8000, churnClusters: 64,
	pool: 128,
}

func uniformVec(rng *rand.Rand) []float64 {
	v := make([]float64, dims)
	for d := range v {
		v[d] = rng.Float64()
	}
	return v
}

// skewedVec scales coordinate d by 1/(1+d): most of the mass sits in the
// first dimensions, the shape on which the planner's path choice is
// closest.
func skewedVec(rng *rand.Rand) []float64 {
	v := make([]float64, dims)
	for d := range v {
		v[d] = rng.Float64() / float64(1+d)
	}
	return v
}

func clusterPoint(rng *rand.Rand, center []float64) []float64 {
	v := make([]float64, dims)
	for d := range v {
		v[d] = math.Min(1, math.Max(0, center[d]+0.03*(rng.Float64()-0.5)))
	}
	return v
}

func generate(workload string, seed int64, sz sizes) (*workloadData, error) {
	rng := rand.New(rand.NewSource(seed))
	many := func(n int, gen func(*rand.Rand) []float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = gen(rng)
		}
		return out
	}
	switch workload {
	case "scan-single":
		uni := &coll{name: "uniform", criterion: "Eq",
			vectors: many(sz.uniformN, uniformVec), queries: many(sz.pool, uniformVec)}
		skw := &coll{name: "skewed", criterion: "Hq", largest: true,
			vectors: many(sz.skewedN, skewedVec), queries: many(sz.pool, skewedVec)}
		return &workloadData{colls: []*coll{uni, skw}, newVector: uniformVec, baseLen: sz.uniformN}, nil

	case "skip-sharded":
		// Cluster runs of clusterRun = segment size × 3 shards rows: with
		// round-robin placement every shard segment is cluster-pure, so
		// synopses skip all but the query's own cluster.
		centers := many(sz.clusteredN/sz.clusterRun, uniformVec)
		vs := make([][]float64, sz.clusteredN)
		for i := range vs {
			vs[i] = clusterPoint(rng, centers[i/sz.clusterRun])
		}
		qs := make([][]float64, sz.pool)
		for i := range qs {
			qs[i] = clusterPoint(rng, centers[rng.Intn(len(centers))])
		}
		// Its clients pin strategy exact, so the figures follow the
		// serving path (skipping, JSON, HTTP, fan-out, merge) and not
		// the planner's timing-fed path choice: with auto, a start's
		// cells per query ranged 96k-224k from one start to the next.
		// The traced run still measures auto against every forced path
		// on these specs (plan.auto_over_best).
		c := &coll{name: "clustered", criterion: "Eq", strategy: "exact", segSize: sz.shardSegSize, vectors: vs, queries: qs}
		return &workloadData{colls: []*coll{c}, baseLen: len(vs),
			newVector: func(r *rand.Rand) []float64 { return clusterPoint(r, centers[r.Intn(len(centers))]) }}, nil

	case "churn-single":
		centers := many(sz.churnClusters, uniformVec)
		vs := make([][]float64, sz.churnN)
		for i := range vs {
			vs[i] = clusterPoint(rng, centers[i%len(centers)])
		}
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		qs := make([][]float64, sz.pool)
		for i := range qs {
			qs[i] = clusterPoint(rng, centers[rng.Intn(len(centers))])
		}
		// Pinned to exact for the same reason as skip-sharded.
		c := &coll{name: "churn", criterion: "Eq", strategy: "exact", vectors: vs, queries: qs}
		return &workloadData{colls: []*coll{c}, baseLen: len(vs),
			newVector: func(r *rand.Rand) []float64 { return clusterPoint(r, centers[r.Intn(len(centers))]) }}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want scan-single, skip-sharded or churn-single)", workload)
}

// prepare encodes the request bodies and, for collections read while
// fixed, computes the exact answers with the sequential-scan oracle. It
// runs before set-up and is not part of any measurement.
func (c *coll) prepare(withOracle bool) {
	c.queryBodies = make([][]byte, len(c.queries))
	specs := make([]api.QuerySpec, len(c.queries))
	for i, q := range c.queries {
		specs[i] = api.QuerySpec{Query: q, K: k, Criterion: c.criterion, Strategy: c.strategy}
		c.queryBodies[i] = mustJSON(specs[i])
	}
	for i := 0; i+batchSize <= len(specs); i += batchSize {
		c.batchBodies = append(c.batchBodies, mustJSON(api.BatchRequest{Queries: specs[i : i+batchSize]}))
	}
	for i := 0; i < len(c.vectors); i += loadBatch {
		c.loadBodies = append(c.loadBodies, mustJSON(api.IngestRequest{Vectors: c.vectors[i:min(i+loadBatch, len(c.vectors))]}))
	}
	if !withOracle {
		return
	}
	c.oracle = make([][]topk.Result, len(c.queries))
	for i, q := range c.queries {
		if c.largest {
			c.oracle[i], _ = seqscan.SearchHistogram(c.vectors, q, k)
		} else {
			c.oracle[i], _ = seqscan.SearchEuclidean(c.vectors, q, k)
		}
	}
}

// opStream generates the write stream: about 90 % ingests of writeVecs
// fresh vectors, about 10 % deletes of an id below acked − deleted, so
// the id is in range however maintenance has renumbered the rows. No op
// reuses an id a response returned.
type opStream struct {
	rng            *rand.Rand
	gen            func(*rand.Rand) []float64
	acked, deleted int
}

func (s *opStream) next() writeOp {
	if s.rng.Float64() < 0.1 && s.acked-s.deleted > 1 {
		id := s.rng.Intn(s.acked - s.deleted)
		s.deleted++
		return writeOp{del: true, id: id}
	}
	vs := make([][]float64, writeVecs)
	for j := range vs {
		vs[j] = s.gen(s.rng)
	}
	s.acked += writeVecs
	return writeOp{body: mustJSON(api.IngestRequest{Vectors: vs})}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of finite floats are encoded
	}
	return b
}

// sameAnswer compares a served top-k with the expected one. Ids must
// match rank by rank, except where two candidates' scores tie within
// summation-order rounding; scores must match within that rounding.
func sameAnswer(got []api.Neighbor, want []topk.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		tol := 1e-9 * math.Max(1, math.Abs(w.Score))
		if math.Abs(got[i].Score-w.Score) > tol {
			return false
		}
		if got[i].ID != w.ID && !tiedWith(want, i, tol) {
			return false
		}
	}
	return true
}

// tiedWith reports whether rank i of want ties a neighbouring rank.
func tiedWith(want []topk.Result, i int, tol float64) bool {
	return (i > 0 && math.Abs(want[i-1].Score-want[i].Score) <= tol) ||
		(i+1 < len(want) && math.Abs(want[i+1].Score-want[i].Score) <= tol)
}

// wellFormed checks what can be checked of an answer without an oracle:
// k results, ranked best first.
func wellFormed(got []api.Neighbor, largest bool) bool {
	if len(got) != k {
		return false
	}
	for i := 1; i < len(got); i++ {
		if (largest && got[i].Score > got[i-1].Score) || (!largest && got[i].Score < got[i-1].Score) {
			return false
		}
	}
	return true
}
