package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent is 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"` // e.g. the endpoint a request hit
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends. A nil *tracer records nothing, which is how the
// untraced runs pay no tracing cost beyond a nil check.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span id (0 on a nil tracer).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent uint64, name, attr string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Attr: attr,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
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

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and a child reaching outside its parent counts only inside it).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		curLo, curHi := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
