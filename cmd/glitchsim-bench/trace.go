package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls the replay makes into each layer, and around the service handler
// on the live server. Spans are held in memory and written at exit.

// span is one timed call at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); spans of one operation share Op.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Op        string `json:"op"`
	Name      string `json:"name"`
	RequestID string `json:"request_id,omitempty"`
	StartNS   int64  `json:"start_ns"` // since the tracer's origin
	EndNS     int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(parent int, op, name, rid string) int {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, RequestID: rid, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// scope is an open span that child spans attach to.
type scope struct {
	t  *tracer
	id int
	op string
}

func (t *tracer) root(op, name string) scope {
	return scope{t: t, id: t.begin(0, op, name, ""), op: op}
}

func (s scope) child(name string) scope {
	return scope{t: s.t, id: s.t.begin(s.id, s.op, name, ""), op: s.op}
}

func (s scope) end() { s.t.end(s.id) }

// run records f as a child span named name.
func (s scope) run(name string, f func()) {
	c := s.child(name)
	f()
	c.end()
}

// handlerSpan is the live server's span name: the service handler, from
// request receipt to the handler's return.
const handlerSpan = "service.handler"

// handlerRecorder wraps the service handler and records one span per
// request while on, keyed by the X-Request-Id the client sent (and the
// service echoes).
type handlerRecorder struct {
	next http.Handler
	t    *tracer
	on   atomic.Bool
}

func (h *handlerRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.t.begin(0, r.URL.Path, handlerSpan, r.Header.Get("X-Request-Id"))
	h.next.ServeHTTP(w, r)
	h.t.end(id)
}

// layerOf maps a span name to the repository module it times.
func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "stimulus":
		return "kernel"
	case "summarize", "power":
		return "counter"
	case "experiment", "batch", "retime":
		return "experiments"
	}
	return prefix
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (children running in parallel
// are counted once, as the union of their intervals).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartNS < cs[b].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, reach), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// writeTrace writes the spans to dir/trace.jsonl, one JSON object per
// line, and the layer summary to dir/layers.json.
func writeTrace(dir string, spans []span, layers any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.jsonl"))
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
	if err := f.Close(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}
