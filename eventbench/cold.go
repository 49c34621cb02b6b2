package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// coldAnalysis is one cold analysis, as an `analyze -bench <b>` user runs
// it: NewPlatform → Run → AnalyzeSet → DefineMetrics → report, with the
// benchmark's default RunConfig and thresholds.
func coldAnalysis(ctx context.Context, b suite.Benchmark) (string, error) {
	p, err := b.NewPlatform()
	if err != nil {
		return "", err
	}
	set, err := b.Run(p, b.DefaultRun)
	if err != nil {
		return "", err
	}
	res, err := b.AnalyzeSet(ctx, set, b.Config)
	if err != nil {
		return "", err
	}
	defs, err := res.DefineMetrics(b.Signatures)
	if err != nil {
		return "", err
	}
	return core.FormatAnalysisReport(res, b.Config.ProjectionTol, b.MetricTable, defs), nil
}

// coldCounts are the per-op counts a traced cold analysis records.
type coldCounts struct {
	events, points, kept, representable, rank, defs, composable, reportBytes int
}

// tracedColdAnalysis is coldAnalysis with AnalyzeSet replaced by the public
// core calls it makes, each in its own span under the op's root span, so
// every stage is timed by the benchmark without touching the program. Its
// report must match coldAnalysis's digest byte for byte.
func tracedColdAnalysis(ctx context.Context, t *tracer, op int, b suite.Benchmark) (string, coldCounts, error) {
	var c coldCounts
	root := t.begin("op", op, -1)
	defer t.end(root)
	id := t.begin("machine.platform", op, root)
	p, err := b.NewPlatform()
	t.end(id)
	if err != nil {
		return "", c, err
	}
	id = t.begin("cat.collect", op, root)
	set, err := b.Run(p, b.DefaultRun)
	t.end(id)
	if err != nil {
		return "", c, err
	}
	c.events, c.points = len(set.Order), len(set.PointNames)
	cfg := b.Config
	id = t.begin("suite.basis", op, root)
	basis, err := b.BasisFor(set)
	t.end(id)
	if err != nil {
		return "", c, err
	}
	if err := set.Validate(); err != nil {
		return "", c, err
	}
	if err := basis.CheckFullRank(); err != nil {
		return "", c, err
	}
	id = t.begin("core.noise", op, root)
	noise := core.FilterNoiseWithWorkers(set, cfg.Tau, core.MaxRNMSE, cfg.Workers)
	t.end(id)
	c.kept = len(noise.KeptOrder)
	id = t.begin("core.project", op, root)
	proj, err := core.BuildXWorkers(basis, noise.Kept, noise.KeptOrder, cfg.ProjectionTol, cfg.Workers)
	t.end(id)
	if err != nil {
		return "", c, err
	}
	c.representable = len(proj.Order)
	if len(proj.Order) == 0 {
		return "", c, fmt.Errorf("%s: no representable events", b.Name)
	}
	id = t.begin("core.qrcp", op, root)
	qr := core.SpecializedQRCP(proj.X, cfg.Alpha)
	res := &core.Result{Noise: noise, Projection: proj, QR: qr, Unmeasured: set.Dropped}
	for _, idx := range qr.Selected() {
		res.SelectedEvents = append(res.SelectedEvents, proj.Order[idx])
	}
	res.Xhat = proj.X.ColSlice(qr.Selected())
	t.end(id)
	c.rank = qr.Rank
	if qr.Rank == 0 {
		return "", c, fmt.Errorf("%s: QRCP selected no events", b.Name)
	}
	id = t.begin("core.define", op, root)
	defs, err := res.DefineMetrics(b.Signatures)
	t.end(id)
	if err != nil {
		return "", c, err
	}
	c.defs = len(defs)
	for _, d := range defs {
		if d.Composable(matrix.DefaultThreshold) {
			c.composable++
		}
	}
	id = t.begin("core.report", op, root)
	text := core.FormatAnalysisReport(res, cfg.ProjectionTol, b.MetricTable, defs)
	t.end(id)
	c.reportBytes = len(text)
	return text, c, nil
}

// groundTruthCalls is how many separate dcache ground-truth simulations a
// traced run times.
const groundTruthCalls = 5

// coldOrder returns the benchmark of every op: each round runs every
// benchmark once, in an order drawn from the seed.
func coldOrder(seed int64, names []string, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n+len(names))
	for len(out) < n {
		for _, i := range rng.Perm(len(names)) {
			out = append(out, names[i])
		}
	}
	return out[:n]
}

// runCold runs a cold-analysis workload over the named benchmarks. One
// warm-up analysis of each benchmark belongs to set-up (for dcache it builds
// the chase plans, which persist in the process as they do in the daemon).
func runCold(o options, names []string) (*result, error) {
	ctx := context.Background()
	benches := map[string]suite.Benchmark{}
	for _, n := range names {
		b, err := suite.ByName(n)
		if err != nil {
			return nil, err
		}
		benches[n] = b
	}
	for _, n := range names {
		text, err := coldAnalysis(ctx, benches[n])
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", n, err)
		}
		if err := check("report/"+n, []byte(text)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	res := &result{setup: time.Since(processStart).Seconds()}
	if o.setupProbe {
		return res, errProbeDone
	}
	// The op sequence is long enough for any run; ops past it wrap around.
	order := coldOrder(o.seed, names, 1<<16)
	res.untraced = closedLoop(o.seconds, func(i int) error {
		name := order[i%len(order)]
		text, err := coldAnalysis(ctx, benches[name])
		if err != nil {
			return err
		}
		return check("report/"+name, []byte(text))
	})
	if !o.trace {
		return res, nil
	}
	t := newTracer()
	var counts []coldCounts
	res.traced = closedLoop(o.seconds, func(i int) error {
		name := order[i%len(order)]
		text, c, err := tracedColdAnalysis(ctx, t, i, benches[name])
		if err != nil {
			return err
		}
		counts = append(counts, c)
		return check("report/"+name, []byte(text))
	})
	// Collection hides the dcache ground-truth simulation; time it as its
	// own call after the traced phase, so traced ops keep the op's work.
	if _, ok := benches["dcache"]; ok {
		for i := 0; i < groundTruthCalls; i++ {
			id := t.begin("cachesim.ground_truth", res.traced.attempted+i, -1)
			_, err := cat.NewDCache().GroundTruthAll(benches["dcache"].DefaultRun)
			t.end(id)
			if err != nil {
				return nil, err
			}
		}
	}
	m := layerValues{}
	m.fromSpans(t)
	var events, points, keptRatio, reprRatio, rank, compRatio, reportBytes []float64
	measured, kept, repr, defs, comp := 0, 0, 0, 0, 0
	for _, c := range counts {
		events = append(events, float64(c.events))
		points = append(points, float64(c.points))
		keptRatio = append(keptRatio, ratio(c.kept, c.events))
		reprRatio = append(reprRatio, ratio(c.representable, c.kept))
		rank = append(rank, float64(c.rank))
		compRatio = append(compRatio, ratio(c.composable, c.defs))
		reportBytes = append(reportBytes, float64(c.reportBytes))
		measured, kept, repr, defs, comp = measured+c.events, kept+c.kept, repr+c.representable, defs+c.defs, comp+c.composable
	}
	m["cat.events_measured"] = median(events)
	m["cat.points"] = median(points)
	m["core.noise_kept_ratio"] = median(keptRatio)
	m["core.representable_ratio"] = median(reprRatio)
	m["core.qrcp_rank"] = median(rank)
	m["core.composable_ratio"] = median(compRatio)
	m["core.report_bytes"] = median(reportBytes)
	res.notes = append(res.notes,
		fmt.Sprintf("core.noise_kept_ratio base: %d kept of %d measured events over %d traced ops", kept, measured, len(counts)),
		fmt.Sprintf("core.representable_ratio base: %d representable of %d kept events", repr, kept),
		fmt.Sprintf("core.composable_ratio base: %d composable of %d defined metrics", comp, defs))
	res.layers, res.notes = m.finish(res, t, o, res.notes)
	return res, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
