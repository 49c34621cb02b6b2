// Package suite wires the four CAT benchmarks to their platforms, bases,
// thresholds and signature tables, giving the command-line tools, examples
// and benchmark harness one registry to drive the complete reproduction.
package suite

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// Benchmark bundles everything needed to run and analyze one CAT benchmark.
type Benchmark struct {
	// Name is the registry key: "cpu-flops", "gpu-flops", "branch", "dcache".
	Name string
	// Description is a one-line summary.
	Description string
	// SignatureTable and MetricTable are the paper's table numbers
	// (I-IV and V-VIII) this benchmark reproduces.
	SignatureTable string
	MetricTable    string
	// Figure is the paper's variability figure for this benchmark (2a-2d).
	Figure string
	// Class is the platform class this benchmark's kernels drive: "cpu" or
	// "gpu". The composability matrix only pairs a benchmark with platforms
	// of its class — a CPU kernel reads all-zero events on a GPU catalog.
	Class string
	// NewPlatform constructs the default simulated machine (the platform
	// the paper ran this benchmark on).
	NewPlatform func() (*machine.Platform, error)
	// Basis constructs the expectation basis.
	Basis func() (*core.Basis, error)
	// Run collects measurements.
	Run func(p *machine.Platform, cfg cat.RunConfig) (*core.MeasurementSet, error)
	// GroundTruth returns the per-thread ground-truth statistics behind the
	// benchmark's full point set under cfg — the known-exact kernel behavior
	// the event-trust validator scores documented event semantics against.
	// Benchmarks whose points are thread-independent return a single slice;
	// cfg.MinimalKernels is ignored (ground truth always covers every point).
	GroundTruth func(cfg cat.RunConfig) ([][]machine.Stats, error)
	// Config holds the analysis thresholds for this benchmark.
	Config core.Config
	// Signatures are the metric signatures to define.
	Signatures []core.Signature
	// BasisSymbols are the ideal-event names for signature rendering.
	BasisSymbols []string
	// DefaultRun is the default collection configuration.
	DefaultRun cat.RunConfig
}

// All returns the four benchmarks in paper order.
func All() []Benchmark {
	return []Benchmark{
		{
			Name:           "cpu-flops",
			Description:    "CPU floating-point units (Intel Sapphire Rapids sim)",
			SignatureTable: "I",
			MetricTable:    "V",
			Figure:         "2b",
			Class:          "cpu",
			NewPlatform:    machine.SapphireRapids,
			Basis:          func() (*core.Basis, error) { return cat.NewFlopsCPU().Basis() },
			Run: func(p *machine.Platform, cfg cat.RunConfig) (*core.MeasurementSet, error) {
				return cat.NewFlopsCPU().Run(p, cfg)
			},
			GroundTruth: func(cat.RunConfig) ([][]machine.Stats, error) {
				return [][]machine.Stats{cat.NewFlopsCPU().GroundTruth()}, nil
			},
			Config:       core.DefaultConfig(),
			Signatures:   core.CPUFlopsSignatures(),
			BasisSymbols: core.CPUFlopsBasisSymbols(),
			DefaultRun:   cat.DefaultRunConfig(),
		},
		{
			Name:           "gpu-flops",
			Description:    "GPU floating-point units (AMD MI250X sim)",
			SignatureTable: "II",
			MetricTable:    "VI",
			Figure:         "2c",
			Class:          "gpu",
			NewPlatform:    machine.MI250X,
			Basis:          func() (*core.Basis, error) { return cat.NewFlopsGPU().Basis() },
			Run: func(p *machine.Platform, cfg cat.RunConfig) (*core.MeasurementSet, error) {
				return cat.NewFlopsGPU().Run(p, cfg)
			},
			GroundTruth: func(cat.RunConfig) ([][]machine.Stats, error) {
				points, err := cat.NewFlopsGPU().GroundTruth()
				if err != nil {
					return nil, err
				}
				return [][]machine.Stats{points}, nil
			},
			Config:       core.DefaultConfig(),
			Signatures:   core.GPUFlopsSignatures(),
			BasisSymbols: core.GPUFlopsBasisSymbols(),
			DefaultRun:   cat.DefaultRunConfig(),
		},
		{
			Name:           "branch",
			Description:    "branching unit (Intel Sapphire Rapids sim)",
			SignatureTable: "III",
			MetricTable:    "VII",
			Figure:         "2a",
			Class:          "cpu",
			NewPlatform:    machine.SapphireRapids,
			Basis:          func() (*core.Basis, error) { return cat.NewBranch().Basis() },
			Run: func(p *machine.Platform, cfg cat.RunConfig) (*core.MeasurementSet, error) {
				return cat.NewBranch().Run(p, cfg)
			},
			GroundTruth: func(cat.RunConfig) ([][]machine.Stats, error) {
				points, err := cat.NewBranch().GroundTruth()
				if err != nil {
					return nil, err
				}
				return [][]machine.Stats{points}, nil
			},
			Config:       core.DefaultConfig(),
			Signatures:   core.BranchSignatures(),
			BasisSymbols: core.BranchBasisSymbols(),
			DefaultRun:   cat.DefaultRunConfig(),
		},
		{
			Name:           "dcache",
			Description:    "data caches, multi-threaded pointer chases (Intel Sapphire Rapids sim)",
			SignatureTable: "IV",
			MetricTable:    "VIII",
			Figure:         "2d",
			Class:          "cpu",
			NewPlatform:    machine.SapphireRapids,
			Basis:          func() (*core.Basis, error) { return cat.NewDCache().Basis() },
			Run: func(p *machine.Platform, cfg cat.RunConfig) (*core.MeasurementSet, error) {
				return cat.NewDCache().Run(p, cfg)
			},
			GroundTruth: func(cfg cat.RunConfig) ([][]machine.Stats, error) {
				return cat.NewDCache().GroundTruthAll(cfg)
			},
			Config:       core.CacheConfig(),
			Signatures:   core.CacheSignatures(),
			BasisSymbols: core.CacheBasisSymbols(),
			DefaultRun:   cat.RunConfig{Reps: 5, Threads: 4},
		},
	}
}

// registry is All built once. ByName and Names sit on the daemon's
// warm-hit path, where rebuilding every closure and signature table per
// request was a fifth of all bytes allocated.
var registry = sync.OnceValue(All)

// ByName looks a benchmark up by registry key. The returned value's slices
// (Signatures with their coefficients, BasisSymbols) are shared with every
// other caller and must be treated as read-only; All returns a private copy.
func ByName(name string) (Benchmark, error) {
	for _, b := range registry() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("suite: unknown benchmark %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names returns the registry keys in order.
func Names() []string {
	all := registry()
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// Analyze runs the full pipeline for one benchmark and returns the analysis
// result together with the measurement set it consumed.
func (b Benchmark) Analyze(cfg cat.RunConfig) (*core.Result, *core.MeasurementSet, error) {
	return b.AnalyzeContext(context.Background(), cfg, b.Config)
}

// AnalyzeContext runs the full pipeline with explicit analysis thresholds
// and cancellation: the context is consulted between collection and each
// analysis stage, so servers and job workers can abandon work whose deadline
// passed. Passing b.Config as analysis reproduces Analyze.
func (b Benchmark) AnalyzeContext(ctx context.Context, cfg cat.RunConfig, analysis core.Config) (*core.Result, *core.MeasurementSet, error) {
	set, err := b.Collect(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := b.AnalyzeSet(ctx, set, analysis)
	if err != nil {
		return nil, nil, err
	}
	return res, set, nil
}

// Collect runs only the measurement phase — platform construction and the
// CAT collection pass — and returns the measurement set. It is the expensive
// half of AnalyzeContext, split out so a serving tier can run it once per
// (benchmark, RunConfig) and feed the same set to many analysis
// configurations via AnalyzeSet. The returned set is treated as immutable by
// every analysis stage, which is what makes that sharing sound.
func (b Benchmark) Collect(ctx context.Context, cfg cat.RunConfig) (*core.MeasurementSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	platform, err := b.NewPlatform()
	if err != nil {
		return nil, err
	}
	return b.Run(platform, cfg)
}

// CollectOn is Collect against an explicit platform instead of the
// benchmark's default one — the cross-architecture path the composability
// matrix takes. The platform's class must match the benchmark's.
func (b Benchmark) CollectOn(ctx context.Context, p *machine.Platform, cfg cat.RunConfig) (*core.MeasurementSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.Class != b.Class {
		return nil, fmt.Errorf("suite: benchmark %s drives %s platforms, %s is %s", b.Name, b.Class, p.Name, p.Class)
	}
	return b.Run(p, cfg)
}

// AnalyzeSet runs the analysis phase — noise filter, projection, QRCP — over
// an already-collected measurement set. Collect + AnalyzeSet compose to
// AnalyzeContext; calling AnalyzeSet repeatedly with different analysis
// configurations over one set never re-collects and never mutates the set.
func (b Benchmark) AnalyzeSet(ctx context.Context, set *core.MeasurementSet, analysis core.Config) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	basis, err := b.BasisFor(set)
	if err != nil {
		return nil, err
	}
	pipe := &core.Pipeline{Basis: basis, Config: analysis}
	return pipe.AnalyzeContext(ctx, set)
}

// BasisFor returns the expectation basis matching a measurement set: the
// full basis when the set covers every benchmark point, or the row subset
// matching the set's points when it was collected under MinimalKernels (or
// loaded from a file covering fewer points). Every consumer that pairs a
// basis with a set — analysis, explain, the CLIs — goes through this, so
// reduced sets never silently misalign with full bases.
func (b Benchmark) BasisFor(set *core.MeasurementSet) (*core.Basis, error) {
	basis, err := b.Basis()
	if err != nil {
		return nil, err
	}
	if len(set.PointNames) == len(basis.PointNames) {
		same := true
		for i, n := range set.PointNames {
			if basis.PointNames[i] != n {
				same = false
				break
			}
		}
		if same {
			return basis, nil
		}
	}
	return basis.SelectPoints(set.PointNames)
}
