package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bond/internal/api"
)

// client is one load-generating connection.
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request as the client saw it.
type reply struct {
	status     int
	body       []byte
	start, end time.Time
	err        error
}

func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// do sends one request; under tracing it opens the root span whose id the
// server-side wrappers link to.
func (c *client) do(method, url string, body []byte, spanName string) reply {
	root, traced := c.tr.root(spanName)
	rep := reply{start: time.Now()}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traced {
		tag(req.Header, root)
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		rep.status = resp.StatusCode
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rep.err = err
	rep.end = time.Now()
	if traced {
		root.End = c.tr.now()
		c.tr.record(root)
	}
	return rep
}

// opRec is one measured operation: when it completed, its latency from
// when it was due and, for queries, the work stats the response
// reported.
type opRec struct {
	end      time.Time
	latency  time.Duration
	cells    int64
	searched int
	skipped  int
	cands    int
}

// tally counts attempted and failed operations across a run. A failure
// is a non-2xx answer, a transport error or a wrong answer; wrong
// answers are also counted apart, since any one fails the run.
type tally struct {
	attempted, failed, wrong, rejected atomic.Int64
}

// check counts one reply and reports whether it succeeded.
func (t *tally) check(r reply) bool {
	t.attempted.Add(1)
	if r.ok() {
		return true
	}
	t.failed.Add(1)
	if r.status == http.StatusServiceUnavailable {
		var e api.Error
		if json.Unmarshal(r.body, &e) == nil && e.Code == "overloaded" {
			t.rejected.Add(1)
		}
	}
	return false
}

func (t *tally) mismatch() {
	t.failed.Add(1)
	t.wrong.Add(1)
}

// verify checks one query answer: against the oracle when the collection
// has one, for well-formedness otherwise.
func (t *tally) verify(c *coll, q int, got []api.Neighbor) {
	if c.oracle != nil {
		if !sameAnswer(got, c.oracle[q]) {
			t.mismatch()
		}
	} else if !wellFormed(got, c.largest) {
		t.mismatch()
	}
}

func collURL(front string, c *coll) string { return front + "/collections/" + c.name }

// openLoop sends request i = 0, 1, … when it falls due, at rate per
// second from t0, until the first one due at or after until: one request
// at a time, over one connection. A request sent late because the one
// before it was still running is timed from its due time, so a slow
// request also counts the wait it caused; one the generator slept for
// is timed from when the sleep returned, since the sleep's overshoot is
// the generator's and not the server's. send performs request i and
// returns its record, false when it failed. The lags are how late each
// request was sent.
func openLoop(rate float64, t0, until time.Time, send func(i int) (opRec, bool)) (recs []opRec, lags []time.Duration) {
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(until) {
			return recs, lags
		}
		from := due
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			from = time.Now()
		}
		lags = append(lags, time.Since(due))
		if rec, ok := send(i); ok {
			rec.latency = rec.end.Sub(from)
			recs = append(recs, rec)
		}
	}
}

// openQueries sends /query requests at rate per second until the
// deadline: the m-th reads collection m mod len(colls) with query
// (m / len(colls)) mod pool.
func openQueries(front string, colls []*coll, cl *client, rate float64, until time.Time, t *tally) ([]opRec, []time.Duration) {
	return openLoop(rate, time.Now(), until, func(m int) (opRec, bool) {
		c := colls[m%len(colls)]
		q := (m / len(colls)) % len(c.queryBodies)
		rep := cl.do(http.MethodPost, collURL(front, c)+"/query", c.queryBodies[q], spanClientQuery)
		if !t.check(rep) {
			return opRec{}, false
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			t.mismatch()
			return opRec{}, false
		}
		t.verify(c, q, resp.Results)
		return opRec{
			end: rep.end, cells: resp.Stats.ValuesScanned,
			searched: resp.Stats.SegmentsSearched, skipped: resp.Stats.SegmentsSkipped,
			cands: resp.Stats.FinalCandidates,
		}, true
	})
}

// openBatches sends /query/batch requests at rate per second until the
// deadline; batch j reads collection j mod len(colls).
func openBatches(front string, colls []*coll, cl *client, rate float64, until time.Time, t *tally) ([]opRec, []time.Duration) {
	return openLoop(rate, time.Now(), until, func(j int) (opRec, bool) {
		c := colls[j%len(colls)]
		b := (j / len(colls)) % len(c.batchBodies)
		rep := cl.do(http.MethodPost, collURL(front, c)+"/query/batch", c.batchBodies[b], spanClientBatch)
		if !t.check(rep) {
			return opRec{}, false
		}
		var resp api.BatchResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil || len(resp.Results) != batchSize {
			t.mismatch()
			return opRec{}, false
		}
		for i, r := range resp.Results {
			t.verify(c, b*batchSize+i, r.Results)
		}
		return opRec{end: rep.end}, true
	})
}

// sendWrite performs one op of the write stream.
func sendWrite(cl *client, front string, c *coll, op writeOp) reply {
	if op.del {
		return cl.do(http.MethodDelete, collURL(front, c)+"/vectors/"+strconv.Itoa(op.id), nil, spanClientWrite)
	}
	return cl.do(http.MethodPost, collURL(front, c)+"/vectors", op.body, spanClientWrite)
}

// openWrites sends the write stream at rate per second from t0 until the
// deadline. After every maintEvery acked writes it hands a maintenance
// request to maint (nil = none).
func openWrites(cl *client, front string, c *coll, ops *opStream, rate float64, t0, until time.Time, t *tally, maint chan<- struct{}) ([]opRec, []time.Duration) {
	acked := 0
	return openLoop(rate, t0, until, func(int) (opRec, bool) {
		rep := sendWrite(cl, front, c, ops.next())
		if !t.check(rep) {
			return opRec{}, false
		}
		if acked++; maint != nil && acked%maintEvery == 0 {
			maint <- struct{}{}
		}
		return opRec{end: rep.end}, true
	})
}

// bulkLoad ingests every collection in batches of loadBatch through
// front, checks each batch landed at the ids of its ingest order, and
// returns each batch's throughput in vectors/s and the process CPU µs
// it took per vector.
func bulkLoad(cl *client, front string, colls []*coll, t *tally) (rates, cpus []float64, err error) {
	for _, c := range colls {
		body := mustJSON(api.CreateRequest{Dims: dims, SegmentSize: c.segSize})
		if rep := cl.do(http.MethodPut, collURL(front, c), body, ""); !t.check(rep) {
			return nil, nil, fmt.Errorf("create %s: status %d: %v %s", c.name, rep.status, rep.err, rep.body)
		}
		for i, b := range c.loadBodies {
			cpu0 := cpuTime()
			rep := cl.do(http.MethodPost, collURL(front, c)+"/vectors", b, spanClientLoad)
			if !t.check(rep) {
				return nil, nil, fmt.Errorf("load %s batch %d: status %d: %v %s", c.name, i, rep.status, rep.err, rep.body)
			}
			var resp api.IngestResponse
			if err := json.Unmarshal(rep.body, &resp); err != nil || resp.FirstID != i*loadBatch {
				t.mismatch()
				return nil, nil, fmt.Errorf("load %s batch %d: landed at %d, want %d (%v)", c.name, i, resp.FirstID, i*loadBatch, err)
			}
			n := min(loadBatch, len(c.vectors)-i*loadBatch)
			rates = append(rates, float64(n)/rep.end.Sub(rep.start).Seconds())
			cpus = append(cpus, us(cpuTime()-cpu0)/float64(n))
		}
	}
	return rates, cpus, nil
}
