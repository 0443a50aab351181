package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"sort"
	"time"

	"bond"
	"bond/internal/api"
	"bond/internal/plan"
	"bond/internal/streammerge"
	"bond/internal/topk"
)

// perLayer fills the traced run's per-layer metrics from the spans, the
// request records, maintenance records and collection stats; isolate
// adds the rest.
func (r *runner) perLayer(a, lastA, untraced []opRec, writes int, openW []opRec, maints []maintRec, ms0, ms1 *runtime.MemStats, reqs int) error {
	ix := indexSpans(r.tr.spans)
	sharded := r.dep.co != nil
	front := spanServer
	if sharded {
		front = spanCoord
	}

	// --- internal/server and internal/shard, from the spans.
	var qHandler, wire, coord, calls, self, straggler, wHandler, load []float64
	nQuery, nCalls := 0, 0
	selfByLayer := map[string]int64{}
	var rootWall int64
	for _, root := range ix.roots {
		kids := ix.children[root.ID]
		switch root.Name {
		case spanClientQuery:
			nQuery++
			ix.criticalSelf(root, selfByLayer)
			rootWall += root.dur()
			for _, h := range kids {
				wire = append(wire, nsMs(root.dur()-h.dur()))
				if !sharded {
					qHandler = append(qHandler, nsMs(h.dur()))
					continue
				}
				coord = append(coord, nsMs(h.dur()))
				var lo, hi int64 = -1, 0
				for _, c := range ix.children[h.ID] {
					nCalls++
					calls = append(calls, nsMs(c.dur()))
					hi = max(hi, c.dur())
					if lo < 0 || c.dur() < lo {
						lo = c.dur()
					}
					for _, sh := range ix.children[c.ID] {
						qHandler = append(qHandler, nsMs(sh.dur()))
					}
				}
				self = append(self, nsMs(h.dur()-hi))
				straggler = append(straggler, nsMs(hi-max(lo, 0)))
			}
		case spanClientWrite:
			for _, h := range kids {
				wHandler = append(wHandler, nsMs(h.dur()))
			}
		case spanClientLoad:
			for _, h := range kids {
				if h.Name == front && sharded {
					load = append(load, nsMs(h.dur()))
				}
			}
		}
	}
	r.layer.set("server.query_handler_ms_p50", "ms", pct(qHandler, 50))
	r.layer.set("server.write_handler_ms_p50", "ms", pct(wHandler, 50))
	r.layer.set("server.write_handler_ms_p99", "ms", pct(wHandler, 99))
	r.layer.set("server.wire_ms_p50", "ms", pct(wire, 50))
	r.layer.set("server.rejected", "count", float64(r.t.rejected.Load()))
	r.layer.set("shard.coord_handler_ms_p50", "ms", pct(coord, 50))
	r.layer.set("shard.call_ms_p50", "ms", pct(calls, 50))
	r.layer.set("shard.call_ms_p90", "ms", pct(calls, 90))
	r.layer.set("shard.calls_per_query", "count", float64(nCalls)/float64(max(nQuery, 1)))
	r.layer.set("shard.self_ms_p50", "ms", pct(self, 50))
	r.layer.set("shard.straggler_ms_p50", "ms", pct(straggler, 50))
	r.layer.set("shard.load_ms_per_batch", "ms", mean(load))
	if !sharded {
		r.note("absent shard.*: %s has no coordinator", r.cfg.workload)
	}
	layers := make([]string, 0, len(selfByLayer))
	for l := range selfByLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		r.note("self %s share=%.4f of %d traced queries' wall time", l,
			float64(selfByLayer[l])/float64(max(rootWall, 1)), nQuery)
	}

	// --- internal/plan, from the traced responses.
	var cells, cands []float64
	var searched, skipped int
	for _, q := range a {
		cells = append(cells, float64(q.cells))
		cands = append(cands, float64(q.cands))
		searched += q.searched
		skipped += q.skipped
	}
	var lastCells []float64
	for _, q := range lastA {
		lastCells = append(lastCells, float64(q.cells))
	}
	half := len(lastCells) / 2
	r.layer.set("plan.cells_per_query", "cells", mean(cells))
	r.layer.set("plan.cells_drift", "ratio", mean(lastCells[half:])/max(mean(lastCells[:half]), 1))
	r.layer.set("plan.skip_ratio", "ratio", float64(skipped)/float64(max(searched+skipped, 1)))
	r.layer.set("exec.final_candidates", "count", mean(cands))

	// --- maintenance.
	var runMs []float64
	var compactions, reclusters, checkpoints int
	for _, m := range maints {
		runMs = append(runMs, ms(m.end.Sub(m.start)))
		compactions += m.compacted
		reclusters += m.reclustered
		checkpoints += m.checkpointed
	}
	var overlap []float64
	for _, wr := range openW {
		for _, m := range maints {
			if wr.end.Add(-wr.latency).Before(m.end) && wr.end.After(m.start) {
				overlap = append(overlap, ms(wr.latency))
				break
			}
		}
	}
	var sum float64
	for _, x := range runMs {
		sum += x
	}
	r.layer.set("maint.run_ms_sum", "ms", sum)
	r.layer.set("maint.run_ms_max", "ms", slices.Max(append(runMs, 0)))
	r.layer.set("maint.compactions", "count", float64(compactions))
	r.layer.set("maint.reclusters", "count", float64(reclusters))
	r.layer.set("maint.checkpoints", "count", float64(checkpoints))
	r.layer.set("maint.overlap_write_ms_p50", "ms", pct(overlap, 50))
	if maints == nil {
		r.note("absent maint.*: %s runs with maintenance off", r.cfg.workload)
	}

	// --- Go runtime, over the traced phases.
	r.layer.set("go.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	r.layer.set("go.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	r.layer.set("go.alloc_bytes_per_req", "bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(reqs, 1)))

	// --- trace overhead: traced over untraced query_p50_ms, same run.
	r.layer.set("trace.overhead", "ratio", pct(latencies(lastA), 50)/pct(latencies(untraced), 50))

	// --- internal/wal and internal/vstore.
	if _, ok := r.layer["wal.records"]; !ok {
		r.layer.set("wal.records", "count", float64(writes)) // one record per acked write, no truncation
	}
	r.layer.set("io.write_bytes_per_user_byte", "ratio",
		float64(r.ioWrites)/float64(8*dims*r.setups[len(r.setups)-1].vectors))
	r.layer.set("vstore.open_ms", "ms", ms(r.setups[len(r.setups)-1].open))
	var mapped, heap int64
	segs := 0
	r.eachCollection(func(col *bond.Collection) {
		st := col.StatsSnapshot()
		mapped += st.MappedBytes
		heap += st.HeapBytes
		segs += st.Segments
	})
	r.layer.set("vstore.mapped_share", "ratio", float64(mapped)/float64(max(mapped+heap, 1)))
	r.layer.set("vstore.segments", "count", float64(segs))

	return r.finish()
}

// isoSpec is one replayed query: the body a client sent, decoded, and
// the collections it runs on (every shard's in shard order, behind a
// coordinator).
type isoSpec struct {
	coll *coll
	q    int // index in coll's query pool
	body []byte
	spec bond.QuerySpec
	cols []*bond.Collection
}

// isolate replays the run's recorded request bodies, single-threaded and
// with no HTTP, into the internal/api codec, bond.Collection.Query,
// QueryBatch and QueryExplain, and streammerge.MergeRanked.
func (r *runner) isolate() error {
	const perColl = 32
	var specs []isoSpec
	for _, c := range r.data.colls {
		var cols []*bond.Collection
		for _, n := range r.dep.nodes {
			col, err := n.srv.Catalog().Get(c.name)
			if err != nil {
				return err
			}
			cols = append(cols, col)
		}
		for q := 0; q < min(perColl, len(c.queryBodies)); q++ {
			specs = append(specs, isoSpec{coll: c, q: q, body: c.queryBodies[q], cols: cols})
		}
	}

	// internal/api: decode each request body, as the handlers do.
	const reps = 20
	var reqBytes []float64
	t0 := time.Now()
	for i := range specs {
		reqBytes = append(reqBytes, float64(len(specs[i].body)))
		var wq api.QuerySpec
		for range reps {
			wq = api.QuerySpec{}
			if err := json.Unmarshal(specs[i].body, &wq); err != nil {
				return err
			}
		}
		crit, err := bond.ParseCriterion(wq.Criterion)
		if err != nil {
			return err
		}
		specs[i].spec = bond.QuerySpec{Query: wq.Query, K: wq.K, Criterion: crit}
	}
	r.layer.set("api.query_decode_us", "us", us(time.Since(t0))/float64(len(specs)*reps))
	r.layer.set("api.query_req_bytes", "bytes", mean(reqBytes))
	load := r.data.colls[0].loadBodies[0]
	nvec := min(loadBatch, len(r.data.colls[0].vectors))
	t0 = time.Now()
	for range 5 {
		var req api.IngestRequest
		if err := json.Unmarshal(load, &req); err != nil {
			return err
		}
	}
	r.layer.set("api.ingest_decode_us_per_vector", "us", us(time.Since(t0))/float64(5*nvec))

	// bond: one Query per spec and collection; warm once first.
	forEach := func(fn func(s isoSpec, col *bond.Collection) error) error {
		for _, s := range specs {
			for _, col := range s.cols {
				if err := fn(s, col); err != nil {
					return err
				}
			}
		}
		return nil
	}
	queryAll := func(strategy bond.Strategy) error {
		return forEach(func(s isoSpec, col *bond.Collection) error {
			sp := s.spec
			sp.Strategy = strategy
			_, err := col.Query(sp)
			return err
		})
	}
	if err := queryAll(bond.StrategyAuto); err != nil {
		return err
	}
	var qUs, cells []float64
	var respBytes []float64
	var encNs time.Duration
	answers := map[*bond.Collection][][]topk.Result{}
	err := forEach(func(s isoSpec, col *bond.Collection) error {
		t := time.Now()
		res, err := col.Query(s.spec)
		qUs = append(qUs, us(time.Since(t)))
		if err != nil {
			return err
		}
		cells = append(cells, float64(res.Stats.ValuesScanned))
		answers[col] = append(answers[col], res.Results)
		var buf bytes.Buffer
		t = time.Now()
		if err := json.NewEncoder(&buf).Encode(wireResponse(res)); err != nil {
			return err
		}
		encNs += time.Since(t)
		respBytes = append(respBytes, float64(buf.Len()))
		return nil
	})
	if err != nil {
		return err
	}
	r.layer.set("bond.query_us_p50", "us", pct(qUs, 50))
	r.layer.set("exec.cells_per_us", "cells/us", mean(cells)/mean(qUs))
	r.layer.set("api.query_encode_us", "us", us(encNs)/float64(len(qUs)))
	r.layer.set("api.query_resp_bytes", "bytes", mean(respBytes))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := queryAll(bond.StrategyAuto); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.layer.set("bond.allocs_per_query", "allocs", float64(m1.Mallocs-m0.Mallocs)/float64(len(qUs)))

	// QueryBatch, batchSize specs per call, per collection.
	perCol := map[*bond.Collection][]bond.QuerySpec{}
	var order []*bond.Collection
	_ = forEach(func(s isoSpec, col *bond.Collection) error {
		if perCol[col] == nil {
			order = append(order, col)
		}
		perCol[col] = append(perCol[col], s.spec)
		return nil
	})
	t0 = time.Now()
	nb := 0
	for _, col := range order {
		all := perCol[col]
		for i := 0; i < len(all); i += batchSize {
			part := all[i:min(i+batchSize, len(all))]
			if _, err := col.QueryBatch(part); err != nil {
				return err
			}
			nb += len(part)
		}
	}
	r.layer.set("bond.batch_us_per_query", "us", us(time.Since(t0))/float64(nb))

	// internal/plan: executed steps by path, predicted vs actual cost.
	paths := map[plan.Path]int{}
	steps := 0
	var pred, actual float64
	err = forEach(func(s isoSpec, col *bond.Collection) error {
		_, p, err := col.QueryExplain(s.spec)
		if err != nil {
			return err
		}
		for _, st := range p.Steps {
			if st.Executed && !st.Skipped {
				paths[st.Path]++
				steps++
			}
		}
		pred += p.PredictedCost()
		actual += p.ActualCost()
		return nil
	})
	if err != nil {
		return err
	}
	share := func(p plan.Path) float64 { return float64(paths[p]) / float64(max(steps, 1)) }
	r.layer.set("plan.share_bond", "ratio", share(plan.PathBOND))
	r.layer.set("plan.share_vafile", "ratio", share(plan.PathVAFile))
	r.layer.set("plan.share_compressed", "ratio", share(plan.PathCompressed))
	r.layer.set("plan.share_exact", "ratio", share(plan.PathExact))
	r.layer.set("plan.pred_over_actual", "ratio", pred/max(actual, 1e-9))

	// auto vs the best forced path on the same specs: three interleaved
	// rounds, median round per strategy. Forced paths must agree with
	// auto's answers.
	strategies := []bond.Strategy{bond.StrategyAuto, bond.StrategyBOND, bond.StrategyCompressed, bond.StrategyVAFile, bond.StrategyExact}
	rounds := make([][]float64, len(strategies))
	for _, st := range strategies[1:] {
		if err := queryAll(st); err != nil { // warm lazily built codes
			return err
		}
	}
	for range 3 {
		for si, st := range strategies {
			t := time.Now()
			if err := queryAll(st); err != nil {
				return err
			}
			rounds[si] = append(rounds[si], us(time.Since(t)))
		}
	}
	for _, st := range strategies[1:] {
		seen := map[*bond.Collection]int{}
		err := forEach(func(s isoSpec, col *bond.Collection) error {
			sp := s.spec
			sp.Strategy = st
			res, err := col.Query(sp)
			if err != nil {
				return err
			}
			want := answers[col][seen[col]]
			seen[col]++
			if !sameAnswer(wireResponse(res).Results, want) {
				r.t.mismatch()
				r.note("isolation: strategy %s disagrees with auto", st)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	best := -1.0
	for si := 1; si < len(strategies); si++ {
		if m := pct(rounds[si], 50); best < 0 || m < best {
			best = m
		}
	}
	r.layer.set("plan.auto_over_best", "ratio", pct(rounds[0], 50)/best)
	for si, st := range strategies {
		r.note("isolation strategy %s: %.1f us/query", st, pct(rounds[si], 50)/float64(len(qUs)))
	}

	// streammerge: the coordinator's merge over each spec's shard lists.
	if r.dep.co == nil {
		r.layer.set("shard.merge_us", "us", 0)
		return nil
	}
	n := len(r.dep.nodes)
	var lists [][][]topk.Result
	var largest []bool
	idx := map[*bond.Collection]int{}
	for _, s := range specs {
		var l [][]topk.Result
		for i, col := range s.cols {
			local := answers[col][idx[col]]
			idx[col]++
			g := make([]topk.Result, len(local))
			for j, x := range local {
				g[j] = topk.Result{ID: x.ID*n + i, Score: x.Score}
			}
			l = append(l, g)
		}
		lists = append(lists, l)
		largest = append(largest, s.coll.largest)
	}
	const mergeReps = 100
	t0 = time.Now()
	for range mergeReps {
		for i, l := range lists {
			streammerge.MergeRanked(k, largest[i], l...)
		}
	}
	r.layer.set("shard.merge_us", "us", us(time.Since(t0))/float64(mergeReps*len(lists)))
	for i, l := range lists {
		if got := streammerge.MergeRanked(k, largest[i], l...); !sameAnswer(wireNeighbors(got), specs[i].coll.oracle[specs[i].q]) {
			r.t.mismatch()
			r.note("isolation: merged shard answers disagree with the oracle for query %d", i)
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func nsMs(ns int64) float64 { return float64(ns) / 1e6 }

// wireResponse renders a result as the server's JSON response shape.
func wireResponse(res bond.QueryResult) api.QueryResponse {
	return api.QueryResponse{
		Results: wireNeighbors(res.Results),
		Stats: api.QueryStats{
			ValuesScanned:    res.Stats.ValuesScanned,
			FinalCandidates:  res.Stats.FinalCandidates,
			SegmentsSearched: res.Stats.SegmentsSearched,
			SegmentsSkipped:  res.Stats.SegmentsSkipped,
		},
		Truncated: res.Truncated,
	}
}

func wireNeighbors(rs []topk.Result) []api.Neighbor {
	out := make([]api.Neighbor, len(rs))
	for i, x := range rs {
		out[i] = api.Neighbor{ID: x.ID, Score: x.Score}
	}
	return out
}

func neighbors(ns []api.Neighbor) []topk.Result {
	out := make([]topk.Result, len(ns))
	for i, x := range ns {
		out[i] = topk.Result{ID: x.ID, Score: x.Score}
	}
	return out
}
