package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req (the request ID the client sent); Parent is the span that caused this
// one, 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; they are written out once,
// at the end. A nil *tracer records nothing, so untraced code paths call the
// same methods.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int32
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin reserves a span ID (so children can name their parent before the
// span ends) and returns it with the start time.
func (t *tracer) begin() (int32, time.Time) {
	now := time.Now()
	if t == nil {
		return 0, now
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, now
}

// end records span id, which began at start, as ending now.
func (t *tracer) end(id, parent int32, name, req, attr string, start time.Time) {
	if t == nil {
		return
	}
	t.record(id, parent, name, req, attr, start, time.Now())
}

// record adds a span whose start and end were observed elsewhere.
func (t *tracer) record(id, parent int32, name, req, attr string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Attr: attr,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the set-up's warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as one JSON line to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// linkOrphans gives parentless spans named child the span named parent of
// the same request as their parent. Worker handlers behind the coordinator
// cannot see the client's span header (the coordinator forwards only the
// body), so they are joined to the coordinator's span by request ID.
func linkOrphans(spans []span, child, parent string) {
	byReq := map[string]int32{}
	for i := range spans {
		if spans[i].Name == parent {
			byReq[spans[i].Req] = spans[i].ID
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name == child && s.Parent == 0 {
			s.Parent = byReq[s.Req]
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once).
func selfTimes(spans []span) map[int32]time.Duration {
	kids := map[int32][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	self := make(map[int32]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered int64
		cur := s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}
