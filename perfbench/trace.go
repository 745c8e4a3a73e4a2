package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"slices"
	"strings"
	"time"

	"sparsehypercube/internal/linecomm"
)

// span is one timed call into a layer. Spans of one op share Op; a
// root span (Parent -1) names the op's kind.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// count is a quantity recorded at a layer boundary (calls, hops,
// bytes), attributed to an op.
type count struct {
	Op    int    `json:"op"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// tracer keeps spans and counts in memory until the run ends. It is
// used from one goroutine. A nil *tracer records nothing, so the same
// composition code runs traced and untraced.
type tracer struct {
	epoch  time.Time
	spans  []span
	counts []count
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// root opens the root span of a new op of the given kind and returns
// the op id and the span id.
func (t *tracer) root(kind string) (op, id int) {
	if t == nil {
		return -1, -1
	}
	op = t.nextOp
	t.nextOp++
	return op, t.begin(kind, -1, op)
}

// dur is the duration of an ended span.
func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// call runs f inside a span.
func (t *tracer) call(name string, parent, op int, f func()) {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
}

func (t *tracer) add(op int, name string, v int64) {
	if t != nil {
		t.counts = append(t.counts, count{Op: op, Name: name, Value: v})
	}
}

// pipe wraps a round stream flowing from producer to consumer: the
// time between yields is the producer's span and the time inside each
// yield a consumer span, children of the producer. parent is the span
// of the consumer's call that ranges over the stream. Calls and hops
// are counted per round under both layers' names, inside a "trace"
// span so the counting is charged to the tracer, not to a layer.
func pipe(t *tracer, op, parent int, producer, consumer string, seq iter.Seq[linecomm.Round]) iter.Seq[linecomm.Round] {
	if t == nil {
		return seq
	}
	pl, cl := layerOf(producer), layerOf(consumer)
	return func(yield func(linecomm.Round) bool) {
		p := t.begin(producer, parent, op)
		defer t.end(p)
		for round := range seq {
			c := t.begin("trace.count", p, op)
			var hops int64
			for _, call := range round {
				hops += int64(call.Length())
			}
			calls := int64(len(round))
			t.add(op, pl+".calls", calls)
			t.add(op, pl+".hops", hops)
			t.add(op, cl+".calls", calls)
			t.end(c)
			y := t.begin(consumer, p, op)
			ok := yield(round)
			t.end(y)
			if !ok {
				return
			}
		}
	}
}

// layerOf maps a span name ("core.ScheduleRounds") to its layer
// ("core").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// opTrace summarises one traced op: its kind (the root span's name),
// wall time, per-span-name self time and counts.
type opTrace struct {
	ID     int
	Kind   string
	Dur    time.Duration
	Self   map[string]time.Duration
	Counts map[string]int64
}

// layerTime is the op's self time spent in the repository's layers:
// everything but the root and the tracer's own bookkeeping.
func (o opTrace) layerTime() time.Duration {
	var t time.Duration
	for name, d := range o.Self {
		if name != o.Kind && layerOf(name) != "trace" {
			t += d
		}
	}
	return t
}

// ops folds the spans into per-op summaries, in op order. A span's
// self time is its duration minus its children's.
func (t *tracer) ops() []opTrace {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byOp := map[int]*opTrace{}
	var order []int
	get := func(op int) *opTrace {
		o, ok := byOp[op]
		if !ok {
			o = &opTrace{ID: op, Self: map[string]time.Duration{}, Counts: map[string]int64{}}
			byOp[op] = o
			order = append(order, op)
		}
		return o
	}
	for _, s := range t.spans {
		o := get(s.Op)
		if s.Parent < 0 {
			o.Kind, o.Dur = s.Name, time.Duration(s.End-s.Start)
		}
		o.Self[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	for _, c := range t.counts {
		get(c.Op).Counts[c.Name] += c.Value
	}
	out := make([]opTrace, 0, len(order))
	for _, op := range order {
		out = append(out, *byOp[op])
	}
	return out
}

// writeSpans dumps every span and count as JSON lines.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, c := range t.counts {
		if err := enc.Encode(c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeLayerTable prints, per op kind and span name, the median self
// time per op over the ops that recorded the span, its share of the
// kind's median op, and the median counts.
func writeLayerTable(w io.Writer, ops []opTrace) {
	kinds := map[string][]opTrace{}
	var names []string
	for _, o := range ops {
		if _, ok := kinds[o.Kind]; !ok {
			names = append(names, o.Kind)
		}
		kinds[o.Kind] = append(kinds[o.Kind], o)
	}
	for _, kind := range names {
		group := kinds[kind]
		var durs []float64
		for _, o := range group {
			durs = append(durs, ms(o.Dur))
		}
		dur := median(durs)
		fmt.Fprintf(w, "op kind %q: %d ops, median %.3f ms\n", kind, len(group), dur)
		fmt.Fprintf(w, "  %-40s %6s %12s %7s\n", "span", "ops", "self ms/op", "share")
		for _, name := range keysOf(group, func(o opTrace) map[string]time.Duration { return o.Self }) {
			var xs []float64
			for _, o := range group {
				if d, ok := o.Self[name]; ok {
					xs = append(xs, ms(d))
				}
			}
			self := median(xs)
			fmt.Fprintf(w, "  %-40s %6d %12.3f %6.1f%%\n", name, len(xs), self, 100*self/dur)
		}
		for _, name := range keysOf(group, func(o opTrace) map[string]int64 { return o.Counts }) {
			var xs []float64
			for _, o := range group {
				if v, ok := o.Counts[name]; ok {
					xs = append(xs, float64(v))
				}
			}
			fmt.Fprintf(w, "  %-40s %6d %12.0f per op\n", name, len(xs), median(xs))
		}
	}
}

func keysOf[V any](ops []opTrace, m func(opTrace) map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, o := range ops {
		for k := range m(o) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	return keys
}
