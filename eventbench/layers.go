package main

import (
	"fmt"
	"strings"
)

// perLayer lists every per-layer metric a traced run prints, in order. A
// workload that does not exercise a layer reports it as 0 and names it in a
// note; WORKLOADS.md says which workload and end-to-end metric each one
// should move.
var perLayer = []struct{ name, unit string }{
	{"machine.platform_ms", "ms"},
	{"cat.collect_ms", "ms"},
	{"cat.events_measured", "count"},
	{"cat.points", "count"},
	{"cachesim.ground_truth_ms", "ms"},
	{"suite.basis_ms", "ms"},
	{"core.noise_ms", "ms"},
	{"core.noise_kept_ratio", "share"},
	{"core.project_ms", "ms"},
	{"core.representable_ratio", "share"},
	{"core.qrcp_ms", "ms"},
	{"core.qrcp_rank", "count"},
	{"core.define_ms", "ms"},
	{"core.composable_ratio", "share"},
	{"core.report_ms", "ms"},
	{"core.report_bytes", "bytes"},
	{"matrix.run_ms", "ms"},
	{"matrix.platform_ms.graviton-sim", "ms"},
	{"matrix.platform_ms.h100-sim", "ms"},
	{"matrix.platform_ms.icl-sim", "ms"},
	{"matrix.platform_ms.mi250x-sim", "ms"},
	{"matrix.platform_ms.spr-sim", "ms"},
	{"matrix.platform_ms.spr-smtoff-sim", "ms"},
	{"matrix.platform_ms.zen4-sim", "ms"},
	{"matrix.dcache_pairs_ms", "ms"},
	{"matrix.dcache_pair_share", "share"},
	{"matrix.format_ms", "ms"},
	{"matrix.pairs", "count"},
	{"matrix.cells", "count"},
	{"matrix.composable_ratio", "share"},
	{"server.hit_ms", "ms"},
	{"server.disk_ms", "ms"},
	{"server.miss_ms", "ms"},
	{"server.route.analyze_ms", "ms"},
	{"server.route.define_ms", "ms"},
	{"server.route.explain_ms", "ms"},
	{"server.route.validate_ms", "ms"},
	{"server.route.matrix_ms", "ms"},
	{"shard.forwarded_ms", "ms"},
	{"shard.local_ms", "ms"},
	{"shard.forwarded_share", "share"},
	{"server.mem_hit_ratio", "share"},
	{"store.disk_hit_ratio", "share"},
	{"server.miss_ratio", "share"},
	{"server.set_reuse_ratio", "ratio"},
	{"server.rejected", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.healthz_ms", "ms"},
	{"trace.unaccounted_ms", "ms"},
	{"trace.ops_per_s_delta", "1/s"},
}

// layerValues collects a traced run's per-layer values by metric name.
type layerValues map[string]float64

// fromSpans sets "<span name>_ms" to the median self time of the spans of
// that name, and trace.unaccounted_ms to the median self time of the op
// roots: the part of an op no layer span covers.
func (m layerValues) fromSpans(t *tracer) {
	for name, self := range selfTimes(t.spans) {
		if name == "op" {
			m["trace.unaccounted_ms"] = median(self)
			continue
		}
		m[name+"_ms"] = median(self)
	}
}

// finish adds the tracing overhead, writes the spans out and orders the
// values as perLayer lists them.
func (m layerValues) finish(res *result, t *tracer, o options, notes []string) (metrics, []string) {
	m["trace.ops_per_s_delta"] = res.traced.opsPerSecond() - res.untraced.opsPerSecond()
	notes = append(notes, fmt.Sprintf("trace.ops_per_s_delta: traced %.4f - untraced %.4f ops/s",
		res.traced.opsPerSecond(), res.untraced.opsPerSecond()))
	path, err := t.write(spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err != nil {
		notes = append(notes, err.Error())
	} else {
		notes = append(notes, fmt.Sprintf("spans: %d written to %s", len(t.spans), path))
	}
	var out metrics
	var idle []string
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			idle = append(idle, l.name)
		}
		out.add(l.name, v, l.unit)
	}
	if len(idle) > 0 {
		notes = append(notes, "not exercised by this workload (reported as 0): "+strings.Join(idle, " "))
	}
	return out, notes
}
