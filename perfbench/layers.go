package main

import (
	"fmt"
	"os"
)

// spanMetric reports the median self time per op, in ms, of one span
// name over the traced ops of one kind that contain it.
type spanMetric struct{ metric, kind, span string }

var spanMetrics = []spanMetric{
	{"core.generate_ms", "op", "core.ScheduleRounds"},
	{"core.gossip_generate_ms", "op", "core.ScheduleGossipRounds"},
	{"schedio.open_ms", "op", "schedio.OpenPlanAt"},
	{"schedio.decode_ms", "op", "schedio.Decoder.Rounds"},
	{"schedio.check_ms", "op", "schedio.PlanAt.Check"},
	{"schedio.encode_ms", "encode", "schedio.WriteIndexed"},
	{"linecomm.validate_ms", "op", "linecomm.ValidateStream"},
	{"linecomm.gossip_validate_ms", "op", "linecomm.ValidateMultiSourceStream"},
	{"linecomm.batch_encode_ms", "op", "linecomm.WriteRoundBatch"},
	{"linecomm.batch_decode_ms", "op", "linecomm.ReadRoundBatch"},
	{"sparsehypercube.verify_serial_ms", "modes", "sparsehypercube.Plan.Verify/serial"},
	{"sparsehypercube.verify_parallel_ms", "modes", "sparsehypercube.Plan.Verify/parallel"},
}

// perCallMetric reports a span's median self time per call, in ns,
// with the calls counted where that span's layer received them.
type perCallMetric struct{ metric, span, calls string }

var perCallMetrics = []perCallMetric{
	{"core.generate_ns_per_call", "core.ScheduleRounds", "core.calls"},
	{"linecomm.validate_ns_per_call", "linecomm.ValidateStream", "linecomm.calls"},
	{"linecomm.gossip_validate_ns_per_call", "linecomm.ValidateMultiSourceStream", "linecomm.calls"},
}

// layerMetrics derives the per-layer metrics the traces hold. Spans a
// workload never records leave their metrics at 0.
func layerMetrics(m metricSet, ops []opTrace) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
	for _, s := range spanMetrics {
		m.set(s.metric, medianOf(withSpan(ops, s.kind, s.span), func(o opTrace) float64 { return ms(o.Self[s.span]) }))
	}
	for _, c := range perCallMetrics {
		m.set(c.metric, medianOf(withSpan(ops, "op", c.span), func(o opTrace) float64 {
			return float64(o.Self[c.span]) / float64(max(o.Counts[c.calls], 1))
		}))
	}
	core := withSpan(ops, "op", "core.ScheduleRounds")
	core = append(core, withSpan(ops, "op", "core.ScheduleGossipRounds")...)
	m.set("core.calls", medianOf(core, func(o opTrace) float64 { return float64(o.Counts["core.calls"]) }))
	m.set("core.hops", medianOf(core, func(o opTrace) float64 { return float64(o.Counts["core.hops"]) }))
	decode := withSpan(ops, "op", "schedio.Decoder.Rounds")
	m.set("schedio.decode_mb_per_s", medianOf(decode, func(o opTrace) float64 {
		return float64(o.Counts["schedio.bytes"]) / 1e6 / o.Self["schedio.Decoder.Rounds"].Seconds()
	}))
	m.set("schedio.encode_bytes", medianOf(withSpan(ops, "encode", "schedio.WriteIndexed"), func(o opTrace) float64 { return float64(o.Counts["schedio.bytes"]) }))
	if par := m["sparsehypercube.verify_parallel_ms"]; par > 0 {
		m.set("sparsehypercube.parallel_speedup", m["sparsehypercube.verify_serial_ms"]/par)
	}
}

// withSpan keeps the ops of kind that recorded span. Every op records
// its root span, named after its kind, so span == kind keeps them all.
func withSpan(ops []opTrace, kind, span string) []opTrace {
	var out []opTrace
	for _, o := range ops {
		if _, ok := o.Self[span]; ok && o.Kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// medianOf is the median of f over ops (0 when there are none).
func medianOf(ops []opTrace, f func(opTrace) float64) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return median(xs)
}

// callCountFailures counts the traced ops whose validator saw other
// than want calls (every op validates one whole plan).
func callCountFailures(ops []opTrace, want int64) int {
	failed := 0
	for _, o := range ops {
		if n, ok := o.Counts["linecomm.calls"]; ok && o.Kind == "op" && n != want {
			failed++
			fmt.Fprintf(os.Stderr, "traced op %d validated %d calls, want %d\n", o.ID, n, want)
		}
	}
	return failed
}
