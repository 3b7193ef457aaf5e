package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/sectopk"
)

// tracer collects, while enabled, the program's own trace hooks (S1's
// query spans through WithTraceSink, both sides' transport frame events
// through telemetry.RegisterSink) and the benchmark's timers around its
// calls into the public API. Everything stays in memory until the run
// ends.
type tracer struct {
	mu     sync.Mutex
	on     bool
	serves []serveEvent
	frames []frameEvent
	calls  []callEvent
}

// serveEvent is one S1 query span, stamped with when the sink saw it
// (the span is emitted as the execution finishes).
type serveEvent struct {
	sp  sectopk.QuerySpan
	end time.Time
}

type frameEvent struct {
	ev  telemetry.FrameEvent
	end time.Time
}

func (f frameEvent) interval() interval {
	return interval{start: f.end.Add(-f.ev.Elapsed), end: f.end}
}

// s2Plane reports whether the frame crossed the S1-S2 link rather than
// the querier-S1 client plane.
func (f frameEvent) s2Plane() bool { return !strings.HasPrefix(f.ev.Method, "Client.") }

// callEvent is one benchmark-timed call into a public function.
type callEvent struct {
	name       string
	start, end time.Time
}

// spanSink is the S1 query-span hook; the rig installs it on every
// DataCloud it builds, and it records only while the tracer is on.
func (t *tracer) spanSink() sectopk.TraceSink {
	return sectopk.TraceSinkFunc(func(sp sectopk.QuerySpan) {
		now := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.on {
			t.serves = append(t.serves, serveEvent{sp: sp, end: now})
		}
	})
}

// start registers the frame hook and begins recording; the returned
// function stops both. Recording is checked under the lock, so once
// stop returns no hook still in flight appends, and the recorded events
// may be read without it.
func (t *tracer) start() (stop func()) {
	unregister := telemetry.RegisterSink(telemetry.SinkFuncs{OnFrame: func(ev telemetry.FrameEvent) {
		now := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.on {
			t.frames = append(t.frames, frameEvent{ev: ev, end: now})
		}
	}})
	t.setOn(true)
	return func() {
		t.setOn(false)
		unregister()
	}
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// call records one timed call; a nil tracer records nothing.
func (t *tracer) call(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.calls = append(t.calls, callEvent{name: name, start: start, end: end})
	}
}

// matchServes pairs each answered query with the S1 span of its
// execution: the span S1 emitted inside the query's Client.Execute
// interval whose S2-call count equals the one the answer carries.
func (t *tracer) matchServes(queries []queryRecord) []*serveEvent {
	out := make([]*serveEvent, len(queries))
	used := make([]bool, len(t.serves))
	for i, q := range queries {
		if q.err != nil {
			continue
		}
		for j := range t.serves {
			sv := &t.serves[j]
			if used[j] || sv.sp.Code != "" || sv.end.Before(q.start) || sv.end.After(q.end) ||
				sv.sp.Traffic.S2Calls != q.ans.Traffic.S2Calls {
				continue
			}
			used[j] = true
			out[i] = sv
			break
		}
	}
	return out
}

// traceSpan is one span as written to the spans file. Times are
// nanoseconds since the start of the traced window.
type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	Code   string `json:"code,omitempty"`
	// Detail describes a query root: mode, attribute count, depth and
	// S2 calls.
	Detail string `json:"detail,omitempty"`
}

// spans builds the span tree of a traced window: per query, the
// Client.Execute root, S1's serve span under it, and the S1-S2 caller
// frames inside the serve interval under that (each with S2's matching
// server frame beneath it); writes and their calls form their own roots.
func (t *tracer) spans(win *window, serves []*serveEvent) []traceSpan {
	t0 := win.start
	var out []traceSpan
	add := func(parent, query int, name string, iv interval, bytes int, code string) int {
		id := len(out) + 1
		out = append(out, traceSpan{ID: id, Parent: parent, Query: query, Name: name,
			Start: iv.start.Sub(t0).Nanoseconds(), End: iv.end.Sub(t0).Nanoseconds(), Bytes: bytes, Code: code})
		return id
	}
	server := map[uint64]frameEvent{}
	for _, f := range t.frames {
		if f.s2Plane() && f.ev.Side == "server" {
			server[f.ev.Frame] = f
		}
	}
	claimed := make([]bool, len(t.frames))
	for i, q := range win.queries {
		code := ""
		if q.err != nil {
			code = "error"
		}
		root := add(0, i+1, "client.execute", interval{q.start, q.end}, 0, code)
		if q.err == nil {
			out[root-1].Detail = fmt.Sprintf("%v m=%d depth=%d s2_calls=%d",
				q.q.mode, len(q.q.Attrs), q.ans.TopK.Depth, q.ans.Traffic.S2Calls)
		}
		sv := serves[i]
		if sv == nil {
			continue
		}
		siv := interval{start: sv.end.Add(-sv.sp.Elapsed), end: sv.end}
		serve := add(root, i+1, "s1.serve", siv, int(sv.sp.Traffic.Bytes), sv.sp.Code)
		for j, f := range t.frames {
			iv := f.interval()
			if claimed[j] || !f.s2Plane() || f.ev.Side != "caller" || iv.start.Before(siv.start) || iv.end.After(siv.end) {
				continue
			}
			claimed[j] = true
			rnd := add(serve, i+1, "s2.round."+f.ev.Method, iv, f.ev.Bytes, f.ev.Code)
			if sf, ok := server[f.ev.Frame]; ok {
				add(rnd, i+1, "s2.handle."+sf.ev.Method, sf.interval(), sf.ev.Bytes, sf.ev.Code)
			}
		}
	}
	for _, c := range t.calls {
		add(0, 0, c.name, interval{c.start, c.end}, 0, "")
	}
	return out
}

// writeSpans writes the spans file of one traced run.
func writeSpans(path string, info map[string]any, spans []traceSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"run": info, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
