package main

import (
	"context"
	"fmt"
	"time"

	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/matrix"
)

// matrixText computes one composability matrix and renders it, as the
// /v1/matrix handler and `figures -fig matrix` do.
func matrixText(ctx context.Context, reg *machine.Registry, req matrix.Request) (string, error) {
	rep, err := matrix.Run(ctx, reg, req)
	if err != nil {
		return "", err
	}
	return rep.Format(), nil
}

// runMatrix runs single-platform matrices of the CPU platforms back to
// back, in rounds of a seeded order. Each op computes one platform's column
// as /v1/matrix does for {"platforms":[p]}: its dcache pair runs through the
// Workers=1 reference simulator, as in the default matrix. The default
// matrix itself runs its five dcache pairs two at a time on the two cores,
// and on the reference box that contention spread its op time across runs
// by more than any bound allows, so it is timed in the traced run only.
// Set-up builds the platform registry and computes the branch-only matrix
// once.
func runMatrix(o options) (*result, error) {
	ctx := context.Background()
	reg, err := machine.NewRegistry()
	if err != nil {
		return nil, err
	}
	text, err := matrixText(ctx, reg, matrix.Request{Benchmarks: []string{"branch"}})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := check("matrix/branch", []byte(text)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var cpu []string
	for _, p := range reg.Names() {
		def, err := reg.Def(p)
		if err != nil {
			return nil, err
		}
		if def.Class == "cpu" {
			cpu = append(cpu, p)
		}
	}
	res := &result{setup: time.Since(processStart).Seconds()}
	if o.setupProbe {
		return res, errProbeDone
	}
	order := coldOrder(o.seed, cpu, 1<<12)
	res.untraced = closedLoop(o.seconds, func(i int) error {
		p := order[i%len(order)]
		text, err := matrixText(ctx, reg, matrix.Request{Platforms: []string{p}})
		if err != nil {
			return err
		}
		return check("matrix/platform/"+p, []byte(text))
	})
	if !o.trace {
		return res, nil
	}
	t := newTracer()
	perPlatform := map[string][]float64{}
	res.traced = closedLoop(o.seconds, func(i int) error {
		p := order[i%len(order)]
		root := t.begin("op", i, -1)
		defer t.end(root)
		start := time.Now()
		rep, err := matrix.Run(ctx, reg, matrix.Request{Platforms: []string{p}})
		end := time.Now()
		t.add("matrix.platform", i, root, start, end)
		if err != nil {
			return err
		}
		perPlatform[p] = append(perPlatform[p], ms(end.Sub(start)))
		id := t.begin("matrix.format", i, root)
		text := rep.Format()
		t.end(id)
		return check("matrix/platform/"+p, []byte(text))
	})
	m := layerValues{}
	m.fromSpans(t)
	// After the traced phase: the default matrix once, each GPU platform's
	// column, and each CPU platform's dcache pair alone, each checked like
	// a timed op. They attribute the default matrix's time.
	op := res.traced.attempted
	timed := func(req matrix.Request, key string) (*matrix.Report, float64, error) {
		start := time.Now()
		rep, err := matrix.Run(ctx, reg, req)
		end := time.Now()
		t.add("matrix.request", op, -1, start, end)
		op++
		if err == nil {
			err = check(key, []byte(rep.Format()))
		}
		if err != nil {
			res.traced.record(res.traced.length, ms(end.Sub(start)), err)
			return nil, 0, err
		}
		return rep, ms(end.Sub(start)), nil
	}
	full, fullMS, err := timed(matrix.Request{}, "matrix/all")
	if err != nil {
		return res, nil
	}
	m["matrix.run_ms"] = fullMS
	m["matrix.cells"] = float64(full.Total)
	m["matrix.composable_ratio"] = ratio(full.Composable, full.Total)
	pairs := map[[2]string]bool{}
	for _, c := range full.Cells {
		pairs[[2]string{c.Platform, c.Benchmark}] = true
	}
	m["matrix.pairs"] = float64(len(pairs))
	var platformTotal, dcacheTotal float64
	for _, p := range reg.Names() {
		if ops, ok := perPlatform[p]; ok {
			m["matrix.platform_ms."+p] = median(ops)
			platformTotal += median(ops)
			_, d, err := timed(matrix.Request{Platforms: []string{p}, Benchmarks: []string{"dcache"}}, "matrix/pair/"+p+"/dcache")
			if err != nil {
				return res, nil
			}
			dcacheTotal += d
			continue
		}
		_, d, err := timed(matrix.Request{Platforms: []string{p}}, "matrix/platform/"+p)
		if err != nil {
			return res, nil
		}
		m["matrix.platform_ms."+p] = d
		platformTotal += d
	}
	m["matrix.dcache_pairs_ms"] = dcacheTotal
	m["matrix.dcache_pair_share"] = dcacheTotal / platformTotal
	res.notes = append(res.notes,
		fmt.Sprintf("matrix.run_ms is one default matrix (%d pairs, %d cells) after the traced phase", len(pairs), full.Total),
		fmt.Sprintf("matrix.dcache_pair_share base: %.1f ms in single-pair dcache requests of %.1f ms in single-platform matrices",
			dcacheTotal, platformTotal),
		fmt.Sprintf("matrix.composable_ratio base: %d composable of %d cells", full.Composable, full.Total))
	res.layers, res.notes = m.finish(res, t, o, res.notes)
	return res, nil
}
