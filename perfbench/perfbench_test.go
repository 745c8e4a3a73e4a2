package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"sparsehypercube/internal/linecomm"
)

// tinySize runs every workload through the same code at sizes that
// finish in milliseconds.
var tinySize = config{
	k: 2, n: 10, replayPool: 2, gossipSources: 16,
	serveN: 8, servePool: 4, serveMaxPlans: 3, serveMinOps: 20,
	setupReps: 2,
}

// benchmarkJSON reads the metric lists of the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []metricDef) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"verify-gen", "gossip-sampled", "serve-mixed"}) {
		t.Errorf("BENCHMARK.json workloads %v", names)
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which perfbench does not run", name)
		}
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	return endToEnd, perLayer
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end-to-end metrics:\n BENCHMARK.json %v\n perfbench      %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per-layer metrics:\n BENCHMARK.json %v\n perfbench      %v", layers, perLayer)
	}
}

// TestSmoke runs every workload untraced and traced at tiny sizes and
// checks that each metric BENCHMARK.json names is emitted with its
// unit, and that every answer was right.
func TestSmoke(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.2, trace: trace, traceDir: t.TempDir(), workDir: t.TempDir()}
			res, err := execute(tinySize, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, v, d.unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v.Value)
				}
			}
			if trace && res.Metrics["trace.overhead_pct"].Value == 0 {
				t.Errorf("%s: trace.overhead_pct not measured", name)
			}
		}
	}
}

func TestOpSequenceDeterministic(t *testing.T) {
	take := func(seed uint64, client int) []serveOp {
		next := opSequence(seed, client, 8)
		ops := make([]serveOp, 1000)
		for i := range ops {
			ops[i] = next()
		}
		return ops
	}
	a := take(42, 0)
	if !slices.Equal(a, take(42, 0)) {
		t.Error("same seed and client gave different op sequences")
	}
	if slices.Equal(a, take(43, 0)) {
		t.Error("seeds 42 and 43 gave the same op sequence")
	}
	if slices.Equal(a, take(42, 1)) {
		t.Error("clients 0 and 1 share an op sequence")
	}
	kinds := map[serveKind]int{}
	for _, op := range a {
		kinds[op.kind]++
	}
	if kinds[opVerify] < 600 || kinds[opOneShot] == 0 || kinds[opSession] == 0 || kinds[opUpload] != 0 {
		t.Errorf("op mix %v, want mostly cached verifies plus one-shots and sessions", kinds)
	}

	r1, r2 := newRand(42, "pool"), newRand(42, "pool")
	if !slices.Equal(distinct(r1, 1<<14, 64), distinct(r2, 1<<14, 64)) {
		t.Error("same seed gave different pools")
	}
}

func TestTailPercentile(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p     int
		value float64
	}{
		{1000, 99, 990}, // exactly ten samples beyond p99
		{999, 98, 980},  // p99 would leave nine
		{35, 71, 25},
		{20, 50, 10},
		{3, 50, 2},
	} {
		v, p := tailPercentile(samples(tc.n))
		if p != tc.p || v != tc.value {
			t.Errorf("n=%d: p%d = %v, want p%d = %v", tc.n, p, v, tc.p, tc.value)
		}
		if beyond := tc.n - rank(p, tc.n); tc.n >= 2*tailBeyond && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, p)
		}
	}
	if v, p := tailPercentile(nil); v != 0 || p != 50 {
		t.Errorf("no samples: p%d = %v", p, v)
	}
}

// TestSelfTime checks the span arithmetic (self time is duration minus
// children) and how pipe splits a stream between producer and consumer.
func TestSelfTime(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	op, root := tr.root("op")
	outer := tr.begin("a.Outer", root, op)
	inner := tr.begin("b.Inner", outer, op)
	tr.spans[inner].Start, tr.spans[inner].End = 10, 40
	tr.spans[outer].Start, tr.spans[outer].End = 0, 100
	tr.spans[root].Start, tr.spans[root].End = 0, 110
	tr.add(op, "b.calls", 3)
	ops := tr.ops()
	if len(ops) != 1 {
		t.Fatalf("%d ops", len(ops))
	}
	o := ops[0]
	if o.Kind != "op" || o.Dur != 110 || o.Self["a.Outer"] != 70 || o.Self["b.Inner"] != 30 || o.Self["op"] != 10 {
		t.Errorf("op %+v", o)
	}
	if o.layerTime() != 100 || o.Counts["b.calls"] != 3 {
		t.Errorf("layer time %v, counts %v", o.layerTime(), o.Counts)
	}

	// pipe: one producer span under the consumer's call, one consumer
	// span per round under the producer, calls and hops counted for both
	// layers.
	tr = &tracer{epoch: time.Now()}
	op, root = tr.root("op")
	rounds := []linecomm.Round{
		{{Path: []uint64{0, 1}}},
		{{Path: []uint64{0, 2, 6}}, {Path: []uint64{1, 3}}},
	}
	for range pipe(tr, op, root, "p.Produce", "c.Consume", slices.Values(rounds)) {
	}
	tr.end(root)
	var producer, consumer int
	for _, s := range tr.spans {
		switch s.Name {
		case "p.Produce":
			producer++
			if s.Parent != root {
				t.Errorf("producer span parent %d, want %d", s.Parent, root)
			}
		case "c.Consume":
			consumer++
			if tr.spans[s.Parent].Name != "p.Produce" {
				t.Errorf("consumer span under %q", tr.spans[s.Parent].Name)
			}
		}
	}
	o = tr.ops()[0]
	if producer != 1 || consumer != 2 || o.Counts["p.calls"] != 3 || o.Counts["p.hops"] != 4 || o.Counts["c.calls"] != 3 {
		t.Errorf("%d producer and %d consumer spans, counts %v", producer, consumer, o.Counts)
	}
}

// TestStealSlicing checks the /proc/stat parsing, the steal share, and
// which ops and how much time the slices keep.
func TestStealSlicing(t *testing.T) {
	a, ok := parseCPUStat("cpu  100 0 50 800 10 0 5 0 7 0\ncpu0 1 2 3\n")
	if !ok || a.total != 965 || a.steal != 0 {
		t.Fatalf("parsed %+v ok=%v", a, ok)
	}
	b, _ := parseCPUStat("cpu  150 0 60 860 10 0 5 5 9 0\n")
	if got := stealShare(a, true, b, true); got != 0.04 {
		t.Errorf("steal share %v, want 0.04", got)
	}
	if stealShare(a, false, b, true) != 0 {
		t.Error("a share without both readings must be 0")
	}
	if _, ok := parseCPUStat("intr 1 2 3\n"); ok {
		t.Error("parsed a file without a cpu line")
	}

	// Enough ops under maxSteal keep the limit there; too few raise it
	// to keep the least contended; fewer ops than the minimum keep all.
	shares := []float64{0.5, 0.01, 0.2, 0.02, 0.1}
	for _, tc := range []struct {
		min  int
		want float64
	}{{2, maxSteal}, {3, 0.1}, {5, 0.5}, {6, math.Inf(1)}} {
		if got := stealLimit(shares, tc.min); got != tc.want {
			t.Errorf("stealLimit(min %d) = %v, want %v", tc.min, got, tc.want)
		}
	}

	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sl := slicing{bounds: []time.Time{at(0), at(1000), at(2000), at(2500)}, steal: []float64{0.01, 0.2, 0.02}}
	if sl.spanShare(at(100), at(900)) != 0.01 || sl.spanShare(at(900), at(2100)) != 0.2 || sl.spanShare(at(2100), at(2600)) != 1 {
		t.Error("spanShare")
	}
	if sl.shareAt(at(-1)) != 1 || sl.shareAt(at(1500)) != 0.2 || sl.shareAt(at(2000)) != 0.02 || sl.shareAt(at(2500)) != 1 {
		t.Error("shareAt")
	}
	if kept, total := sl.times(maxSteal); kept != 1500*time.Millisecond || total != 2500*time.Millisecond {
		t.Errorf("times %v of %v", kept, total)
	}
}
