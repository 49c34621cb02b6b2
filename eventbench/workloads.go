package main

// workloadSpec is one named workload: how to run it, the tail percentile
// it fixes for latency_tail_ms (chosen so a run of the default length has
// at least ten ops beyond it) and the latency limit behind slo_share.
type workloadSpec struct {
	tail  float64
	sloMS float64
	// windows > 1 takes latency_tail_ms as the median of the tails of that
	// many equal windows of the phase; each must keep ten samples beyond
	// the tail percentile.
	windows int
	run     func(o options) (*result, error)
}

// workloads are the benchmark's workloads; WORKLOADS.md records why each
// exists. The limits sit well above each workload's measured tail on the
// reference 2-core box, so slo_share drops only when latency grows a lot.
var workloads = map[string]*workloadSpec{
	"cold-flops": {tail: 98, sloMS: 100, run: func(o options) (*result, error) {
		return runCold(o, []string{"cpu-flops", "gpu-flops", "branch"})
	}},
	"cold-dcache": {tail: 85, sloMS: 400, run: func(o options) (*result, error) {
		return runCold(o, []string{"dcache"})
	}},
	// A default-length matrix run holds about 15 ops, too few for any
	// percentile to have ten beyond it; p80 leaves about three, where the
	// maximum alone moved by 0.3 of its median between runs.
	"matrix": {tail: 80, sloMS: 5000, run: runMatrix},
	// 300 requests/s gives each 4 s window of a 20 s phase about 1200
	// requests, twelve beyond p99.
	"serve": {tail: 99, sloMS: 25, windows: 5, run: runServe},
}

func workloadNames() []string {
	return []string{"cold-flops", "cold-dcache", "matrix", "serve"}
}
