package main

import (
	"fmt"
	"io"
)

// metricDef names a reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units as the two lists
// below (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd metrics are what a user of the system sees; every workload
// reports all of them from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"calls_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from the traced run. A layer a workload never
// calls reports 0.
var perLayer = []metricDef{
	{"core.generate_ms", "ms"},
	{"core.generate_ns_per_call", "ns"},
	{"core.gossip_generate_ms", "ms"},
	{"core.calls", "count"},
	{"core.hops", "count"},
	{"schedio.open_ms", "ms"},
	{"schedio.decode_ms", "ms"},
	{"schedio.decode_mb_per_s", "MB/s"},
	{"schedio.encode_ms", "ms"},
	{"schedio.encode_bytes", "bytes"},
	{"schedio.check_ms", "ms"},
	{"linecomm.validate_ms", "ms"},
	{"linecomm.validate_ns_per_call", "ns"},
	{"linecomm.gossip_validate_ms", "ms"},
	{"linecomm.gossip_validate_ns_per_call", "ns"},
	{"linecomm.batch_encode_ms", "ms"},
	{"linecomm.batch_decode_ms", "ms"},
	{"sparsehypercube.verify_serial_ms", "ms"},
	{"sparsehypercube.verify_parallel_ms", "ms"},
	{"sparsehypercube.parallel_speedup", "ratio"},
	{"sparsehypercube.overhead_ms", "ms"},
	{"planserver.verify_ms_p50", "ms"},
	{"planserver.upload_ms_p50", "ms"},
	{"planserver.oneshot_ms_p50", "ms"},
	{"planserver.session_ms_p50", "ms"},
	{"planserver.server_verify_ms_mean", "ms"},
	{"planserver.http_overhead_ms", "ms"},
	{"planserver.cache_hit_ratio", "ratio"},
	{"planserver.evictions", "count"},
	{"planserver.spills", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.cpu_util", "ratio"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// metricSet holds measured values by metric name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// render returns the result's "metrics" object for defs, failing on a
// metric the run did not measure (a benchmark bug, never a 0).
func (m metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable writes one "name value unit" line per metric.
func printTable(w io.Writer, defs []metricDef, vals map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, vals[d.name].Value, d.unit)
	}
}
