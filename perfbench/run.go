package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"bond"
	"bond/internal/api"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch root; the run's data directories go under it
	sizes    sizes
	setups   int // set-ups whose median setup_s reports
}

// setupRec is one timed set-up: bulk load, checkpoint on close,
// restart, first open.
type setupRec struct {
	total, open time.Duration
	loadRates   []float64 // each load batch's vectors/s
	loadCPU     []float64 // each load batch's process CPU µs per vector
	vectors     int
}

// maintRec is one RunMaintenance call.
type maintRec struct {
	start, end                           time.Time
	compacted, reclustered, checkpointed int
}

// result is what one run measured.
type result struct {
	metrics metrics  // end-to-end, from an untraced run
	layer   metrics  // per-layer, from a traced run
	info    []string // printed before the result line
	spans   []span
	t       *tally
}

// run executes one workload end to end.
func run(cfg config) (*result, error) {
	data, err := generate(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	churn := cfg.workload == "churn-single"
	for _, c := range data.colls {
		c.prepare(!churn)
	}
	r := &runner{cfg: cfg, data: data, tr: newTracer(), t: &tally{}, m: metrics{}, layer: metrics{}}
	defer os.RemoveAll(r.runDir())
	if err := r.setupAll(); err != nil {
		return nil, err
	}
	err = r.phases()
	if r.dep != nil {
		if serr := r.dep.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}
	return &result{metrics: r.m, layer: r.layer, info: r.info, t: r.t, spans: r.tr.spans}, nil
}

type runner struct {
	cfg   config
	data  *workloadData
	tr    *tracer
	t     *tally
	m     metrics // end-to-end
	layer metrics // per-layer
	info  []string

	dep      *deployment
	setupDir string // data of the last set-up
	pristine string // the last set-up's data, copied for every start
	lifeDir  string // data of the serving start
	setups   []setupRec
	ioWrites int64 // /proc/self/io write_bytes during the final set-up
}

func (r *runner) runDir() string {
	return filepath.Join(r.cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
}

func (r *runner) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *runner) secs(frac float64) time.Duration {
	return time.Duration(frac * r.cfg.seconds * float64(time.Second))
}

// setupAll sets the workload up cfg.setups times from empty data
// directories and keeps the last deployment serving.
func (r *runner) setupAll() error {
	if r.cfg.trace {
		// The traced run's set-up feeds shard.load_ms_per_batch.
		r.tr.on.Store(true)
		defer r.tr.on.Store(false)
	}
	for i := range r.cfg.setups {
		dir := filepath.Join(r.runDir(), fmt.Sprintf("setup%d", i))
		io0 := ioWriteBytes()
		d, rec, err := r.setup(dir)
		if err != nil {
			return err
		}
		r.ioWrites = ioWriteBytes() - io0
		r.setups = append(r.setups, rec)
		if i < r.cfg.setups-1 {
			if err := d.stop(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		r.dep, r.setupDir = d, dir
	}
	return nil
}

func (r *runner) setup(dir string) (*deployment, setupRec, error) {
	var rec setupRec
	t0 := time.Now()
	d, err := start(r.cfg.workload, dir, r.tr)
	if err != nil {
		return nil, rec, err
	}
	cl := newClient(r.tr)
	defer cl.close()
	if rec.loadRates, rec.loadCPU, err = bulkLoad(cl, d.front, r.data.colls, r.t); err != nil {
		d.stop()
		return nil, rec, err
	}
	// Close checkpoints every collection; the restart then opens sealed
	// segments memory-mapped, as after a bondd restart.
	if err := d.stop(); err != nil {
		return nil, rec, err
	}
	if d, err = start(r.cfg.workload, dir, r.tr); err != nil {
		return nil, rec, err
	}
	to := time.Now()
	for _, n := range d.nodes {
		for _, c := range r.data.colls {
			if _, err := n.srv.Catalog().Get(c.name); err != nil {
				d.stop()
				return nil, rec, fmt.Errorf("first open of %s: %w", c.name, err)
			}
		}
	}
	rec.open = time.Since(to)
	rec.total = time.Since(t0)
	for _, c := range r.data.colls {
		rec.vectors += len(c.vectors)
	}
	return d, rec, nil
}

// phases runs the measured phases of the workload on the serving
// deployment and fills the metrics.
func (r *runner) phases() error {
	if r.cfg.workload == "churn-single" {
		return r.churnPhases()
	}
	return r.readPhases()
}

// Phase lengths as shares of --seconds: A (/query), B (/query/batch),
// C (writes). Each read phase is preceded by an unmeasured warm-up a
// quarter of its length, while lazily built codes and the adaptive cost
// model settle.
const (
	shareA, shareB, shareC = 0.45, 0.35, 0.20
	warmShare              = 0.25
)

// rates are the open-loop request rates of a workload's phases, per
// second. Each is a fifth or less of what the workload's node serves
// closed-loop on a 2-CPU host, so a request seldom queues behind another
// and its latency is its service time: a rate near capacity would make
// the figures follow every change of the host's speed, as closed-loop
// rates did.
type rates struct{ query, batch, write float64 }

func workloadRates(w string) rates {
	if w == "churn-single" {
		return rates{query: 200, batch: 10, write: writeRate}
	}
	return rates{query: 250, batch: 20, write: 100}
}

// lives is how many times a read workload restarts its nodes from the
// set-up's data within one run, each time running phases A, B and C for
// 1/lives of their share, so a run's figures average over starts: under
// auto a start's learned planner costs settle on different access paths
// for as long as the process lives, and even with the path pinned one
// start's query p50 differed from another's in the same run by up to
// 30 %.
const lives = 6

func (r *runner) readPhases() error {
	colls := r.data.colls
	rt := workloadRates(r.cfg.workload)
	qc, bc, wc := newClient(r.tr), newClient(r.tr), newClient(r.tr)
	defer func() {
		for _, c := range []*client{qc, bc, wc} {
			c.close()
		}
	}()
	var a, b, w []phase
	var ms0, ms1 runtime.MemStats
	per := 1.0 / lives
	for life := range lives {
		if err := r.restart(life); err != nil {
			return err
		}
		front := r.dep.front
		last := life == lives-1
		openQueries(front, colls, qc, rt.query, time.Now().Add(r.secs(per*shareA*warmShare)), r.t)
		r.tr.on.Store(r.traced(life))
		if last {
			runtime.ReadMemStats(&ms0)
		}
		a = append(a, timed(r.secs(per*shareA), func(until time.Time) ([]opRec, []time.Duration) {
			return openQueries(front, colls, qc, rt.query, until, r.t)
		}))
		openBatches(front, colls, bc, rt.batch, time.Now().Add(r.secs(per*shareB*warmShare)), r.t)
		b = append(b, timed(r.secs(per*shareB), func(until time.Time) ([]opRec, []time.Duration) {
			return openBatches(front, colls, bc, rt.batch, until, r.t)
		}))
		if last {
			runtime.ReadMemStats(&ms1)
			if r.cfg.trace {
				// Before the writes, while the oracle still holds.
				r.tr.on.Store(false)
				if err := r.isolate(); err != nil {
					return err
				}
				r.tr.on.Store(true)
			}
		}
		// Every start writes the same stream onto the same data.
		ops := &opStream{rng: rand.New(rand.NewSource(r.cfg.seed + 1)), gen: r.data.newVector, acked: r.data.baseLen}
		w = append(w, timed(r.secs(per*shareC), func(until time.Time) ([]opRec, []time.Duration) {
			return openWrites(wc, front, colls[0], ops, rt.write, time.Now(), until, r.t, nil)
		}))
		r.tr.on.Store(false)
	}

	r.endToEnd(a, b, w)
	if r.cfg.trace {
		last := a[len(a)-1]
		reqs := len(last.recs) + len(b[len(b)-1].recs)
		return r.perLayer(pooled(a[1:]), last.recs, a[0].recs, len(pooled(w[1:])), nil, nil, &ms0, &ms1, reqs)
	}
	return r.finish()
}

// traced reports whether a start of a traced run records spans: all but
// the first, whose phase A is the untraced baseline of trace.overhead.
func (r *runner) traced(life int) bool { return r.cfg.trace && life > 0 }

// restart stops the serving deployment and starts a new one on a fresh
// copy of the set-up's data, checkpointed and never yet queried.
func (r *runner) restart(life int) error {
	err := r.dep.stop()
	r.dep = nil
	if err != nil {
		return err
	}
	if r.pristine == "" {
		r.pristine = filepath.Join(r.runDir(), "pristine")
		if err := os.Rename(r.setupDir, r.pristine); err != nil {
			return err
		}
	} else if err := os.RemoveAll(r.lifeDir); err != nil {
		return err
	}
	r.lifeDir = filepath.Join(r.runDir(), fmt.Sprintf("life%d", life))
	if err := copyDir(r.pristine, r.lifeDir); err != nil {
		return err
	}
	d, err := start(r.cfg.workload, r.lifeDir, r.tr)
	if err != nil {
		return err
	}
	r.dep = d
	return nil
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// churnLives is how many times churn-single starts from the set-up's
// data within one run, each start running the whole write schedule, with
// its maintenance, for 1/churnLives of --seconds. As for the read
// workloads, one start per run made whole runs fast or slow.
const churnLives = 2

// churnA is churn-single's share of a start for phase A. Segments seal
// at fixed ingest counts, so with 20 s starts the reclusters land in the
// same phase of every start.
const churnA = 0.5

// churnPhases runs each start's open-loop writer across the whole start,
// with maintenance every maintEvery acked writes, beside an open-loop
// query stream (phase A) and then an open-loop batch stream (phase B).
// Write figures cover every write, the warm-up's included.
func (r *runner) churnPhases() error {
	c := r.data.colls[0]
	colls := []*coll{c}
	rt := workloadRates(r.cfg.workload)
	qc, bc, wc := newClient(r.tr), newClient(r.tr), newClient(r.tr)
	defer func() {
		for _, cl := range []*client{qc, bc, wc} {
			cl.close()
		}
	}()
	per := 1.0 / churnLives
	warm := r.secs(per * warmShare * 0.5)
	var a, b, wp []phase
	var writes []opRec
	var maints []maintRec
	var walAppended int64
	var ms0, ms1 runtime.MemStats
	for life := range churnLives {
		if err := r.restart(life); err != nil {
			return err
		}
		front, srv := r.dep.front, r.dep.nodes[0].srv
		traced := r.traced(life)
		last := life == churnLives-1

		maintCh := make(chan struct{}, int((warm+r.secs(per)).Seconds()*rt.write)/maintEvery+1) // sized to the number of sends
		maintDone := make(chan struct{})
		walStart := walRecords(r.dep)
		var walTruncated int64
		go func() {
			defer close(maintDone)
			for range maintCh {
				w0 := walRecords(r.dep)
				root, ok := r.tr.root(spanMaint)
				rec := maintRec{start: time.Now()}
				var err error
				rec.compacted, rec.reclustered, rec.checkpointed, err = srv.RunMaintenance()
				rec.end = time.Now()
				if ok {
					root.End = r.tr.now()
					r.tr.record(root)
				}
				if w1 := walRecords(r.dep); w1 < w0 {
					walTruncated += w0
				}
				r.t.attempted.Add(1)
				if err != nil {
					r.t.failed.Add(1)
					r.note("maintenance failed: %v", err)
				}
				maints = append(maints, rec)
			}
		}()

		r.tr.on.Store(traced)
		ops := &opStream{rng: rand.New(rand.NewSource(r.cfg.seed + 1)), gen: r.data.newVector, acked: r.data.baseLen}
		t0 := time.Now()
		var wr phase
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			wr = timed(warm+r.secs(per), func(until time.Time) ([]opRec, []time.Duration) {
				return openWrites(wc, front, c, ops, rt.write, t0, until, r.t, maintCh)
			})
		}()

		openQueries(front, colls, qc, rt.query, t0.Add(warm), r.t)
		if last {
			runtime.ReadMemStats(&ms0)
		}
		a = append(a, timed(r.secs(per*churnA), func(until time.Time) ([]opRec, []time.Duration) {
			return openQueries(front, colls, qc, rt.query, until, r.t)
		}))
		b = append(b, timed(r.secs(per*(1-churnA)), func(until time.Time) ([]opRec, []time.Duration) {
			return openBatches(front, colls, bc, rt.batch, until, r.t)
		}))
		<-writerDone
		close(maintCh)
		<-maintDone
		r.tr.on.Store(false)
		if last {
			runtime.ReadMemStats(&ms1)
		}
		writes = append(writes, wr.recs...)
		wp = append(wp, wr)
		if traced {
			walAppended += walRecords(r.dep) + walTruncated - walStart
		}
	}

	if err := r.quiescentOracle(c); err != nil {
		return err
	}
	if r.cfg.trace {
		if err := r.isolate(); err != nil {
			return err
		}
	}

	r.endToEnd(a, b, wp)
	if r.cfg.trace {
		r.layer.set("wal.records", "count", float64(walAppended))
		last := a[len(a)-1]
		reqs := len(last.recs) + len(b[len(b)-1].recs) + len(writes)/churnLives
		return r.perLayer(pooled(a[1:]), last.recs, a[0].recs, len(writes), writes, maints, &ms0, &ms1, reqs)
	}
	return r.finish()
}

// quiescentOracle checks churn-single's final state: a sample of auto
// answers must equal strategy=exact answers on the same data.
func (r *runner) quiescentOracle(c *coll) error {
	cl := newClient(r.tr)
	defer cl.close()
	for q := 0; q < min(32, len(c.queries)); q++ {
		var got [2]api.QueryResponse
		for i, strategy := range []string{"auto", "exact"} {
			body := mustJSON(api.QuerySpec{Query: c.queries[q], K: k, Criterion: c.criterion, Strategy: strategy})
			rep := cl.do(http.MethodPost, collURL(r.dep.front, c)+"/query", body, "")
			if !r.t.check(rep) {
				return fmt.Errorf("final %s query %d: status %d: %v %s", strategy, q, rep.status, rep.err, rep.body)
			}
			if err := json.Unmarshal(rep.body, &got[i]); err != nil {
				return fmt.Errorf("final %s query %d: %w", strategy, q, err)
			}
		}
		if !sameAnswer(got[0].Results, neighbors(got[1].Results)) {
			r.t.mismatch()
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latencies(recs []opRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.latency)
	}
	return out
}

// phase is one timed phase: when it started, how long it ran, and the
// operations it completed.
type phase struct {
	start   time.Time
	elapsed time.Duration
	recs    []opRec
	lags    []time.Duration // how late the open-loop generator sent each request
	cpu     time.Duration   // the process's CPU time over the phase
}

func timed(d time.Duration, fn func(until time.Time) ([]opRec, []time.Duration)) phase {
	p := phase{start: time.Now()}
	cpu0 := cpuTime()
	p.recs, p.lags = fn(p.start.Add(d))
	p.cpu = cpuTime() - cpu0
	p.elapsed = time.Since(p.start)
	return p
}

// windowsPerRun is how many equal windows a run's timed phases of one
// kind are cut into in all. The host's memory bandwidth drifts over
// seconds; a statistic over windows keeps one slow stretch from moving a
// whole run's figure.
const windowsPerRun = 18

// windowed cuts the phases into windowsPerRun windows, applies fn to
// each, and returns the interquartile mean of the values: the mean of
// the middle half, which averages over planner states but not over the
// host's worst and best stretches.
func windowed(ps []phase, fn func([]opRec) float64) float64 {
	var vals []float64
	n := windowsPerRun / len(ps)
	for _, p := range ps {
		w := p.elapsed / time.Duration(n)
		for i := range n {
			lo, hi := p.start.Add(time.Duration(i)*w), p.start.Add(time.Duration(i+1)*w)
			var in []opRec
			for _, o := range p.recs {
				if !o.end.Before(lo) && o.end.Before(hi) {
					in = append(in, o)
				}
			}
			vals = append(vals, fn(in))
		}
	}
	return iqMean(vals)
}

// iqMean is the mean of the middle half of xs.
func iqMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}

func pooled(ps []phase) []opRec {
	var out []opRec
	for _, p := range ps {
		out = append(out, p.recs...)
	}
	return out
}

func pctOf(p float64) func([]opRec) float64 {
	return func(recs []opRec) float64 { return pct(latencies(recs), p) }
}

// cpuPerOp is the process CPU µs per operation over the phases, counting
// each operation as n.
func cpuPerOp(ps []phase, n int) float64 {
	var cpu time.Duration
	ops := 0
	for _, p := range ps {
		cpu += p.cpu
		ops += n * len(p.recs)
	}
	return us(cpu) / float64(max(ops, 1))
}

// endToEnd fills the read, write and set-up metrics every run reports.
func (r *runner) endToEnd(a, b, w []phase) {
	r.m.set("query_p50_ms", "ms", windowed(a, pctOf(50)))
	r.ungated("query_p90_ms", "ms", windowed(a, pctOf(90)))
	r.ungated("query_cpu_us", "us", cpuPerOp(a, 1))
	var cells []float64
	for _, o := range pooled(a) {
		cells = append(cells, float64(o.cells))
	}
	r.ungated("query_cells", "cells", mean(cells))
	r.ungated("batch_p50_ms", "ms", windowed(b, pctOf(50)))
	r.ungated("batch_cpu_us", "us", cpuPerOp(b, batchSize))
	r.m.set("write_p50_ms", "ms", windowed(w, pctOf(50)))
	r.ungated("write_p90_ms", "ms", windowed(w, pctOf(90)))
	for i := range a {
		r.note("start %d: query p50 %.3f ms, %.0f us CPU per query; batch p50 %.3f ms; write p50 %.3f ms",
			i, pct(latencies(a[i].recs), 50), cpuPerOp(a[i:i+1], 1), pct(latencies(b[i].recs), 50), pct(latencies(w[i].recs), 50))
	}
	r.tail("query", latencies(pooled(a)), 99, 99.9)
	r.tail("batch", latencies(pooled(b)), 99)
	r.tail("write", latencies(pooled(w)), 99, 99.9)
	for _, k := range []struct {
		name string
		ps   []phase
	}{{"query", a}, {"batch", b}, {"write", w}} {
		var lags []float64
		for _, p := range k.ps {
			for _, l := range p.lags {
				lags = append(lags, ms(l))
			}
		}
		r.note("generator lag %s_ms p50=%.3f max=%.3f over %d requests", k.name, pct(lags, 50), slices.Max(append(lags, 0)), len(lags))
	}

	// Load figures per batch, so a disk stall under a few batches does
	// not move them: interquartile means over every set-up's batches.
	var rates, cpus []float64
	totals := make([]float64, len(r.setups))
	for i, s := range r.setups {
		rates = append(rates, s.loadRates...)
		cpus = append(cpus, s.loadCPU...)
		totals[i] = s.total.Seconds()
	}
	r.ungated("load_cpu_us", "us", iqMean(cpus))
	r.ungated("load_vps", "vectors/s", iqMean(rates))
	r.m.set("setup_s", "s", pct(totals, 50))
	r.note("setup_s samples %v", totals)
}

// ungated notes a figure that is printed but not gated.
func (r *runner) ungated(name, unit string, v float64) {
	r.note("ungated %s=%.6g %s", name, v, unit)
}

// tail notes ungated high percentiles with their sample counts.
func (r *runner) tail(name string, xs []float64, ps ...float64) {
	for _, p := range ps {
		r.note("tail %s_p%g_ms=%.3f n=%d beyond=%d", name, p, pct(xs, p), len(xs), int(float64(len(xs))*(100-p)/100))
	}
}

// finish fills the end-of-run metrics: failures, memory, disk.
func (r *runner) finish() error {
	att, failed := r.t.attempted.Load(), r.t.failed.Load()
	r.m.set("success_ratio", "ratio", 1-float64(failed)/float64(max(att, 1)))
	r.m.set("rss_peak_mb", "MB", rssPeakMB())
	var disk int64
	for _, n := range r.dep.nodes {
		b, err := dirBytes(n.dir)
		if err != nil {
			return err
		}
		disk += b
	}
	live := 0
	r.eachCollection(func(col *bond.Collection) { live += col.Live() })
	r.m.set("disk_bytes_per_user_byte", "ratio", float64(disk)/float64(8*dims*live))
	return nil
}

// eachCollection visits every served collection on every node.
func (r *runner) eachCollection(fn func(*bond.Collection)) {
	for _, n := range r.dep.nodes {
		for _, col := range n.srv.Catalog().Loaded() {
			fn(col)
		}
	}
}

func walRecords(d *deployment) int64 {
	var total int64
	for _, n := range d.nodes {
		for _, col := range n.srv.Catalog().Loaded() {
			if ws, ok := col.WALStats(); ok {
				total += ws.WALRecords
			}
		}
	}
	return total
}
