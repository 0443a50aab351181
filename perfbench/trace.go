package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark can wrap from outside
// the program.
const (
	spanClientQuery = "client.query" // roots: one per client request
	spanClientBatch = "client.batch"
	spanClientWrite = "client.write"
	spanClientLoad  = "client.load"
	spanServer      = "server.handler" // the single node's Handler().ServeHTTP
	spanCoord       = "coord.handler"  // the coordinator's Handler().ServeHTTP
	spanShardCall   = "shard.call"     // one coordinator → shard round trip
	spanShard       = "shard.handler"  // a shard node's Handler().ServeHTTP
	spanMaint       = "maint.run"      // one Server.RunMaintenance call
)

// Headers carrying the trace across an HTTP hop: the request id every
// span of one client request shares, and the id of the calling span.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      int64
}

func (s span) dur() int64 { return s.End - s.Start }

type spanKey struct{}

// tracer keeps spans in memory while it is on. It is off during
// untraced runs, where its wrappers only pass calls through.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root opens a client-request span with a fresh request id, or returns
// ok=false while tracing is off or for an unnamed (untraced) request.
func (t *tracer) root(name string) (span, bool) {
	if name == "" || !t.on.Load() {
		return span{}, false
	}
	id := t.ids.Add(1)
	return span{ID: id, Req: id, Name: name, Start: t.now()}, true
}

func (t *tracer) child(parent span, name string) span {
	return span{ID: t.ids.Add(1), Parent: parent.ID, Req: parent.Req, Name: name, Start: t.now()}
}

func tag(h http.Header, s span) {
	h.Set(hdrReq, strconv.FormatUint(s.Req, 10))
	h.Set(hdrParent, strconv.FormatUint(s.ID, 10))
}

// handler wraps a node's Handler(): a request carrying trace headers gets
// a span, and the span rides in the request context, where the
// coordinator's shard calls (derived from r.Context()) find it.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		if req == 0 || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		s := span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: t.now()}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s)))
		s.End = t.now()
		t.record(s)
	})
}

// transport wraps the coordinator's shard-call transport: a call made on
// behalf of a traced request gets a shard.call span, and the outgoing
// request carries the headers the shard-side handler wrapper reads.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr transport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, ok := r.Context().Value(spanKey{}).(span)
	if !ok || !tr.t.on.Load() {
		return tr.base.RoundTrip(r)
	}
	s := tr.t.child(parent, spanShardCall)
	r = r.Clone(r.Context())
	tag(r.Header, s)
	resp, err := tr.base.RoundTrip(r)
	if err != nil {
		s.End = tr.t.now()
		tr.t.record(s)
		return nil, err
	}
	// The call ends when the caller has read and closed the body, not
	// when the headers arrive: a large response is still streaming then.
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = tr.t.now()
		tr.t.record(s)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// traceIndex is the recorded spans arranged as trees.
type traceIndex struct {
	byID     map[uint64]span
	children map[uint64][]span
	roots    []span
}

func indexSpans(spans []span) traceIndex {
	ix := traceIndex{byID: map[uint64]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			ix.roots = append(ix.roots, s)
		} else {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	sort.Slice(ix.roots, func(i, j int) bool { return ix.roots[i].Start < ix.roots[j].Start })
	return ix
}

// selfTime is a span's duration minus the part of it its children
// cover.
func (ix traceIndex) selfTime(s span) int64 {
	kids := append([]span(nil), ix.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered, curS, curE int64
	open := false
	for _, c := range kids {
		cs, ce := max(c.Start, s.Start), min(c.End, s.End)
		if ce <= cs {
			continue
		}
		if !open || cs > curE {
			if open {
				covered += curE - curS
			}
			curS, curE, open = cs, ce, true
		} else if ce > curE {
			curE = ce
		}
	}
	if open {
		covered += curE - curS
	}
	return s.dur() - covered
}

// criticalSelf walks a request tree from its root along the child that
// ends last (the one the parent waited for) and adds each span's self
// time to its layer. Parallel siblings off that path are not counted, so
// the layers' shares sum to at most the root's wall time.
func (ix traceIndex) criticalSelf(root span, into map[string]int64) {
	for s, ok := root, true; ok; {
		into[s.Name] += ix.selfTime(s)
		var next span
		ok = false
		for _, c := range ix.children[s.ID] {
			if !ok || c.End > next.End {
				next, ok = c, true
			}
		}
		s = next
	}
}
