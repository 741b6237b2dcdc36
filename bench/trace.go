package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// query share Req; Parent names the layer whose span encloses this one.
// Layers are replayed one full pass each, so the spans of a query were
// not recorded at the same wall time — they are joined by Req, and only
// their durations enter the arithmetic.
type span struct {
	Name   string
	Req    int32
	Start  time.Duration // since the trace began
	End    time.Duration
	Parent string
}

func (s span) dur() time.Duration { return s.End - s.Start }

// trace holds the spans of one traced run in memory until the run ends.
type trace struct {
	began time.Time
	spans []span
}

func newTrace() *trace { return &trace{began: time.Now()} }

// add records a span that ran from start to end (both from time.Now).
func (t *trace) add(name, parent string, req int32, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(t.began), End: end.Sub(t.began)})
}

// unlink detaches the named layer's span from its parent for every
// request where cut reports true: the parent did not call it on that
// request (a cache hit never reaches the index), so neither it nor the
// spans beneath it belong to that request's chain.
func (t *trace) unlink(name string, cut func(req int32) bool) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && cut(s.Req) {
			s.Parent = ""
		}
	}
}

// selfTimes computes each layer's mean self time over the requests that
// have a root span: a span's self time is its duration minus the
// durations of the spans of the same request naming it as parent. Per
// request the self times telescope to the root span, so the returned
// means sum to the mean root duration (returned second). Spans that do
// not reach root through their parents are not part of the chain. It
// also returns how many requests had a root span.
func (t *trace) selfTimes(root string) (self map[string]time.Duration, rootMean time.Duration, n int) {
	byReq := map[int32][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	sum := map[string]time.Duration{}
	var rootSum time.Duration
	for _, spans := range byReq {
		byName := make(map[string]*span, len(spans))
		for _, s := range spans {
			byName[s.Name] = s
		}
		if byName[root] == nil {
			continue
		}
		n++
		rootSum += byName[root].dur()
		for _, s := range spans {
			// Follow parents up to root; a chain is at most a few layers.
			at, hops := s, 0
			for at != nil && at.Name != root && hops < len(spans) {
				at, hops = byName[at.Parent], hops+1
			}
			if at == nil || at.Name != root {
				continue
			}
			sum[s.Name] += s.dur()
			if s.Name != root {
				sum[s.Parent] -= s.dur()
			}
		}
	}
	self = map[string]time.Duration{}
	if n == 0 {
		return self, 0, 0
	}
	for l, d := range sum {
		self[l] = d / time.Duration(n)
	}
	return self, rootSum / time.Duration(n), n
}

// write stores the spans as a JSON array of
// {name, req_id, start_ns, end_ns, parent}.
func (t *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	for i := range t.spans {
		s := &t.spans[i]
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"req_id":%d,"start_ns":%d,"end_ns":%d,"parent":%q}%s`+"\n",
			s.Name, s.Req, int64(s.Start), int64(s.End), s.Parent, sep)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
