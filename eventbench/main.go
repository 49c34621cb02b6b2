// Command eventbench is the eventlens benchmark. One process runs one named
// workload for a fixed time and prints every end-to-end metric by name and
// unit; a traced run (--trace 1) times the benchmark's own calls into each
// layer and prints the per-layer metrics instead. Every timed output is
// checked against SHA-256 digests kept in data/digests.json.
//
//	go build -o eventbench . && ./eventbench --workload cold-flops --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (run.sh builds and runs it from there).
// See WORKLOADS.md for why each workload exists and what each per-layer
// metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s: package
// variables of the main package initialize just before main runs.
var processStart = time.Now()

// setupRuns is how many times one run sets its workload up (itself plus
// setupRuns-1 probe processes); setup_s is their median.
const setupRuns = 3

// spansDir receives the traced runs' span files, inside the checkout.
const spansDir = ".bench_build/spans"

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	setupProbe bool
	stdout     io.Writer
	stderr     io.Writer
}

// errProbeDone ends a setup probe once its workload is set up.
var errProbeDone = errors.New("setup probe done")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eventbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics")
	probe := fs.Bool("setup-probe", false, "set the workload up, print the set-up time and exit")
	gen := fs.String("gen-digests", "", "regenerate the output digests into this file and exit")
	compare := fs.Bool("compare", false, "summarise saved run outputs given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *gen != "":
		if err := generateDigests(*gen, stderr); err != nil {
			fmt.Fprintln(stderr, "eventbench:", err)
			return 1
		}
		return 0
	case *compare:
		if err := compareRuns(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "eventbench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "eventbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "eventbench: --seconds must be > 0")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		setupProbe: *probe, stdout: stdout, stderr: stderr}
	if o.workload == "all" {
		return runAll(o)
	}
	spec, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "eventbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := loadDigests(); err != nil {
		fmt.Fprintln(stderr, "eventbench:", err)
		return 1
	}
	res, err := spec.run(o)
	if o.setupProbe {
		if !errors.Is(err, errProbeDone) {
			fmt.Fprintln(stderr, "eventbench: setup probe:", err)
			return 1
		}
		fmt.Fprintf(stdout, "setup_s %.9f\n", res.setup)
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "eventbench:", err)
		return 1
	}
	setups, err := probeSetups(o)
	if err != nil {
		fmt.Fprintln(stderr, "eventbench:", err)
		return 1
	}
	res.setups = append(setups, res.setup)
	if err := report(o, spec, res); err != nil {
		fmt.Fprintln(stderr, "eventbench:", err)
		return 1
	}
	return 0
}

// result is what one workload run measured.
type result struct {
	setup    float64   // this process's set-up time, seconds
	setups   []float64 // every set-up time of the run, probes included
	untraced *phase
	traced   *phase  // trace mode only
	layers   metrics // trace mode only
	notes    []string
}

// phase is one timed phase: every operation attempted in it.
type phase struct {
	lat       []float64 // latency of every completed op, ms
	ok        []bool    // whether that op succeeded with the right output
	at        []float64 // when that op started (was due), s from the phase start
	length    float64   // the phase's nominal length, s
	steal     float64   // share of the machine's CPU time the host took
	attempted int
	failed    int
	wall      float64 // seconds from the phase start to its last completion
	alloc     uint64  // heap bytes allocated during the phase
	errs      []string
}

// record adds one attempted op; a non-nil err marks it failed, and the
// first few reasons are kept for the log.
func (p *phase) record(at, latMS float64, err error) {
	p.attempted++
	p.at = append(p.at, at)
	p.lat = append(p.lat, latMS)
	p.ok = append(p.ok, err == nil)
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
	}
}

func (p *phase) opsPerSecond() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.lat)) / p.wall
}

// closedLoop runs op back to back, one caller, until seconds have passed,
// finishing the op in flight at the deadline.
func closedLoop(seconds float64, op func(i int) error) *phase {
	p := &phase{length: seconds}
	a0, st0 := totalAlloc(), readCPUStat()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		err := op(i)
		p.record(t0.Sub(start).Seconds(), ms(time.Since(t0)), err)
	}
	p.wall = time.Since(start).Seconds()
	p.alloc = totalAlloc() - a0
	p.steal = readCPUStat().stealSince(st0)
	return p
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var c cpuStat
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || i >= 8 { // user..steal; guest time is already in user
			break
		}
		c.total += x
		if i == 7 {
			c.steal = x
		}
	}
	return c
}

// stealSince returns the share of CPU time stolen by the host since then.
func (c cpuStat) stealSince(then cpuStat) float64 {
	if c.total <= then.total {
		return 0
	}
	return (c.steal - then.steal) / (c.total - then.total)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name, value, unit})
}

// endToEnd derives the end-to-end metrics of one untraced phase.
func endToEnd(spec *workloadSpec, setups []float64, p *phase) (metrics, []string) {
	var m metrics
	var notes []string
	m.add("setup_s", median(setups), "s")
	m.add("ops_per_s", p.opsPerSecond(), "1/s")
	m.add("latency_p50_ms", median(p.lat), "ms")
	tail, note := tailLatency(spec, p)
	m.add("latency_tail_ms", tail, "ms")
	notes = append(notes, note)
	within := 0
	for i, l := range p.lat {
		if p.ok[i] && l <= spec.sloMS {
			within++
		}
	}
	m.add("slo_share", float64(within)/float64(max(p.attempted, 1)), "share")
	notes = append(notes, fmt.Sprintf("slo_share: %d of %d ops within %g ms", within, p.attempted, spec.sloMS))
	m.add("alloc_mb_per_op", float64(p.alloc)/1e6/float64(max(p.attempted, 1)), "MB")
	m.add("peak_rss_mb", peakRSSMB(), "MB")
	notes = append(notes, fmt.Sprintf("error_share %g (%d of %d ops failed, refused or wrong)",
		float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted),
		fmt.Sprintf("the host stole %.3f of the machine's CPU time during the phase", p.steal))
	return m, notes
}

// tailLatency applies the tail rule to the whole phase or, for a workload
// with windows, to each equal window of the phase and returns the median of
// the windows' tails, so a burst of interference confined to one window does
// not set the run's tail.
func tailLatency(spec *workloadSpec, p *phase) (float64, string) {
	if spec.windows < 2 || p.length <= 0 {
		pct := tailPercentile(len(p.lat), spec.tail)
		return percentile(p.lat, pct), fmt.Sprintf("latency_tail_ms is p%g of %d ops (%d beyond it; fixed p%g)",
			pct, len(p.lat), beyond(len(p.lat), pct), spec.tail)
	}
	win := make([][]float64, spec.windows)
	for i, at := range p.at {
		k := min(int(at/p.length*float64(spec.windows)), spec.windows-1)
		win[k] = append(win[k], p.lat[i])
	}
	var tails []float64
	var desc []string
	for _, w := range win {
		pct := tailPercentile(len(w), spec.tail)
		tails = append(tails, percentile(w, pct))
		desc = append(desc, fmt.Sprintf("p%g of %d", pct, len(w)))
	}
	return median(tails), fmt.Sprintf("latency_tail_ms is the median over %d windows of each window's tail (%s ops; fixed p%g)",
		spec.windows, strings.Join(desc, ", "), spec.tail)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// probeSetups sets the workload up setupRuns-1 more times, each in a fresh
// process so process-wide caches start cold as they do in this one.
func probeSetups(o options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	var out []float64
	for i := 1; i < setupRuns; i++ {
		probe := o
		probe.setupProbe = true
		cmd := exec.Command(self, probe.args()...)
		cmd.Stderr = o.stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		f := strings.Fields(string(raw))
		if len(f) != 2 || f[0] != "setup_s" {
			return nil, fmt.Errorf("setup probe: unexpected output %q", raw)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// report prints the run: fingerprint, notes, every metric by name and unit,
// and last the one-line JSON result.
func report(o options, spec *workloadSpec, res *result) error {
	fp := fingerprint()
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(o.stdout)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "fingerprint %s\n", fpJSON)
	e2e, notes := endToEnd(spec, res.setups, res.untraced)
	shown := e2e
	p := res.untraced
	if o.trace {
		shown = res.layers
		p = res.traced
	}
	for _, n := range append(notes, res.notes...) {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, e := range p.errs {
		fmt.Fprintf(w, "error %s\n", e)
	}
	for _, m := range shown {
		fmt.Fprintf(w, "metric %-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]value{}}
	if o.trace && res.untraced.failed > 0 {
		out.Correct = false
	}
	for _, m := range shown {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// runAll runs every workload in its own process and passes their output on.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(o.stderr, "eventbench:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		o.workload = name
		cmd := exec.Command(self, o.args()...)
		cmd.Stdout, cmd.Stderr = o.stdout, o.stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(o.stderr, "eventbench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// args renders the options as the command line of a child process.
func (o options) args() []string {
	a := []string{"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0"}
	if o.trace {
		a[len(a)-1] = "1"
	}
	if o.setupProbe {
		a = append(a, "--setup-probe")
	}
	return a
}
