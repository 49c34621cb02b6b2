package server

import (
	"context"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// measurementSet resolves (benchmark, run) to its shared measurement set
// through the batching cache, keyed by cat.RunConfig.MeasurementKey.
// Collection depends only on (benchmark, RunConfig) — analysis thresholds
// never touch it — and every analysis stage treats the set as immutable, so
// K analysis configurations sharing a measurement key trigger exactly one
// collection pass whether they arrive concurrently (they join the flight)
// or sequentially (they hit the cache). Collections running under minimal
// spanning kernel selection count themselves and the points the selection
// pruned (full basis rows minus collected points) — the cost it saved.
func (s *Server) measurementSet(ctx context.Context, bench suite.Benchmark, run cat.RunConfig) (*core.MeasurementSet, error) {
	set, shared, err := s.sets.do(ctx, run.MeasurementKey(bench.Name), func() (*core.MeasurementSet, error) {
		s.collections.Inc()
		set, err := bench.Collect(ctx, run)
		if err != nil {
			return nil, err
		}
		if run.MinimalKernels {
			s.minimalRuns.Inc()
			if basis, err := bench.Basis(); err == nil && basis.Points() > len(set.PointNames) {
				s.minimalPruned.Add(uint64(basis.Points() - len(set.PointNames)))
			}
		}
		return set, nil
	})
	if shared {
		s.batchCoalesced.Inc()
	}
	return set, err
}
