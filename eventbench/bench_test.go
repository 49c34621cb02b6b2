package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/perfmetrics/eventlens/internal/suite"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n           int
		fixed, want float64
	}{
		{1000, 99, 99},  // exactly ten beyond p99
		{999, 99, 98},   // nine beyond p99: fall back down the ladder
		{840, 98, 98},   // a default-length cold-flops run
		{90, 85, 85},    // a default-length cold-dcache run
		{20, 85, 50},    // only the median keeps ten beyond
		{5, 85, 85},     // nothing does: the fixed percentile stands
		{15, 80, 80},    // a default-length matrix run
		{3000, 99, 99},  // more samples never lower the fixed percentile
		{100, 99.9, 90}, // 99.9..95 have fewer than ten beyond
	} {
		got := tailPercentile(tc.n, tc.fixed)
		if got != tc.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", tc.n, tc.fixed, got, tc.want)
		}
		if got != tc.fixed && beyond(tc.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d, %g) = %g leaves %d beyond", tc.n, tc.fixed, got, beyond(tc.n, got))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, reversed
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %g, want 100", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule run-to-run spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 0, Parent: -1, Start: 0, End: 10},
		{Name: "a", Op: 0, Parent: 0, Start: 1, End: 3},
		{Name: "b", Op: 0, Parent: 0, Start: 2, End: 5},   // overlaps a: counted once
		{Name: "c", Op: 0, Parent: 0, Start: 8, End: 12},  // runs past its parent: clipped
		{Name: "d", Op: 0, Parent: 1, Start: 1.5, End: 2}, // a's child
		{Name: "op", Op: 1, Parent: -1, Start: 20, End: 21},
	}
	got := selfTimes(spans)
	want := map[string][]float64{
		"op": {10 - (4 + 2), 1}, // [1,5] and [8,10] covered; the second op has no children
		"a":  {1.5},
		"b":  {3},
		"c":  {4},
		"d":  {0.5},
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: self times %v, want %v", name, g, w)
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > 1e-12 {
				t.Errorf("%s[%d]: self time %g, want %g", name, i, g[i], w[i])
			}
		}
	}
	m := layerValues{}
	tr := &tracer{spans: spans}
	m.fromSpans(tr)
	if m["trace.unaccounted_ms"] != 2.5 || m["a_ms"] != 1.5 {
		t.Errorf("layer values %v: want trace.unaccounted_ms 2.5 (median of 4 and 1) and a_ms 1.5", m)
	}
}

func TestStreamIsSeedDetermined(t *testing.T) {
	a := makeStream(7, serveRate, sweepShare, 5*time.Second, 30, 1000)
	b := makeStream(7, serveRate, sweepShare, 5*time.Second, 30, 1000)
	c := makeStream(8, serveRate, sweepShare, 5*time.Second, 30, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same request stream")
	}
	served := 30
	var last time.Duration
	for i, r := range a {
		if r.due < last {
			t.Fatalf("request %d due at %v, before its predecessor", i, r.due)
		}
		last = r.due
		switch {
		case r.tmpl == served:
			served++ // a new sweep config, taken in order
		case r.tmpl > served:
			t.Fatalf("request %d repeats template %d before it was served", i, r.tmpl)
		}
	}
	if served == 30 || served-30 > len(a)/5 {
		t.Errorf("%d new sweep configs among %d requests; want a minority", served-30, len(a))
	}
	if n := float64(len(a)) / 5; n < serveRate*0.9 || n > serveRate*1.1 {
		t.Errorf("stream rate %.1f/s, want about %g/s", n, serveRate)
	}
	order := sweepOrder(7, sweepCount)
	seen := map[int]bool{}
	for j, k := range order {
		if seen[k] || k < 0 || k >= sweepCount || k%4 != j%4 {
			t.Fatalf("sweep order %d: config %d repeats, is out of range or breaks the benchmarks' turns", j, k)
		}
		seen[k] = true
	}
	if reflect.DeepEqual(order, sweepOrder(8, sweepCount)) {
		t.Error("different seeds gave the same sweep order")
	}
	if !reflect.DeepEqual(coldOrder(3, []string{"x", "y", "z"}, 30), coldOrder(3, []string{"x", "y", "z"}, 30)) ||
		reflect.DeepEqual(coldOrder(3, []string{"x", "y", "z"}, 30), coldOrder(4, []string{"x", "y", "z"}, 30)) {
		t.Error("cold op order is not determined by the seed alone")
	}
}

// TestOpenLoopLatencyFromDue stalls one request and checks that the ones
// queued behind it are charged the wait from their due times.
func TestOpenLoopLatencyFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	tmpls := []template{{Route: "/x", Body: "{}", Digest: digestOf([]byte("ok"))}}
	var reqs []request
	var idx []int
	for i := 0; i < 10; i++ {
		reqs = append(reqs, request{due: time.Duration(i) * 10 * time.Millisecond})
		idx = append(idx, i)
	}
	reqs[9].due = 2 * stall // after the backlog has cleared
	out := make([]sample, len(reqs))
	client := newClient()
	origin := time.Now()
	sendStream(context.Background(), client, srv.URL, origin, reqs, idx, tmpls, out)
	for i, s := range out {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		lat := s.done.Sub(s.due)
		if i == 3 || i == 4 {
			// Due 10 and 20 ms after the stalled request was sent, they wait
			// for it to finish: their latency counts that wait.
			if want := stall - time.Duration(i-2)*10*time.Millisecond; lat < want {
				t.Errorf("request %d: latency %v from due time, want at least %v", i, lat, want)
			}
			if s.start.Sub(s.due) < stall/2 {
				t.Errorf("request %d: sent %v after due, want the stall's lag", i, s.start.Sub(s.due))
			}
		}
	}
	if lat := out[9].done.Sub(out[9].due); lat > stall/2 {
		t.Errorf("request 9, due after the backlog cleared, has latency %v", lat)
	}
}

// TestCorruptedOutputCaught shows a wrong output fails its op: a report
// with one byte changed, and an HTTP body that differs from its digest.
func TestCorruptedOutputCaught(t *testing.T) {
	if err := loadDigests(); err != nil {
		t.Fatal(err)
	}
	b, err := suite.ByName("branch")
	if err != nil {
		t.Fatal(err)
	}
	text, err := coldAnalysis(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if err := check("report/branch", []byte(text)); err != nil {
		t.Fatalf("the true report fails its check: %v", err)
	}
	bad := []byte(text)
	bad[len(bad)/2] ^= 1
	if err := check("report/branch", bad); err == nil {
		t.Fatal("a corrupted report passed its check")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("not the body"))
	}))
	defer srv.Close()
	s := send(context.Background(), newClient(), srv.URL, template{Route: "/v1/analyze", Body: "{}", Digest: digestOf([]byte("the body"))})
	if s.err == nil || !strings.Contains(s.err.Error(), "digest") {
		t.Fatalf("a wrong HTTP body was accepted: %v", s.err)
	}
	p := &phase{}
	p.record(0, 1, nil)
	p.record(0, 1, s.err)
	if _, notes := endToEnd(&workloadSpec{tail: 99, sloMS: 10}, []float64{1}, p); !strings.Contains(strings.Join(notes, "\n"), "error_share 0.5") {
		t.Errorf("a wrong output is not counted in error_share: %v", notes)
	}
}

// TestTracedAnalysisMatchesAnalyzeSet checks the staged, traced analysis
// yields the same report digests as the AnalyzeSet path it replaces.
func TestTracedAnalysisMatchesAnalyzeSet(t *testing.T) {
	if err := loadDigests(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for i, name := range []string{"branch", "cpu-flops", "gpu-flops", "dcache"} {
		b, err := suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		text, _, err := tracedColdAnalysis(context.Background(), tr, i, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := check("report/"+name, []byte(text)); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the metrics the
// runs print in step.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
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
	var workloadsListed []string
	for _, w := range b.Workloads {
		workloadsListed = append(workloadsListed, w.Name)
	}
	if !reflect.DeepEqual(workloadsListed, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", workloadsListed, workloadNames())
	}
	p := &phase{}
	p.record(0, 1, nil)
	e2e, _ := endToEnd(&workloadSpec{tail: 99, sloMS: 10}, []float64{1}, p)
	var printed []struct{ Name, Unit string }
	for _, m := range e2e {
		printed = append(printed, struct{ Name, Unit string }{m.name, m.unit})
	}
	if !reflect.DeepEqual(b.EndToEnd, printed) {
		t.Errorf("BENCHMARK.json end_to_end %v, runs print %v", b.EndToEnd, printed)
	}
	printed = nil
	for _, l := range perLayer {
		printed = append(printed, struct{ Name, Unit string }{l.name, l.unit})
	}
	if !reflect.DeepEqual(b.PerLayer, printed) {
		t.Errorf("BENCHMARK.json per_layer %v, traced runs print %v", b.PerLayer, printed)
	}
}

// TestWindowedTail checks a burst confined to one window of a windowed
// workload's phase does not set its tail.
func TestWindowedTail(t *testing.T) {
	p := &phase{length: 5}
	for i := 0; i < 5000; i++ {
		at := float64(i) / 1000
		lat := float64(i%100) / 10 // 0..9.9 ms, ten of each: p99 9.8
		if at >= 2 && at < 3 && i%10 == 0 {
			lat = 500 // a burst: 10% of window 2 stalls
		}
		p.record(at, lat, nil)
	}
	whole, _ := tailLatency(&workloadSpec{tail: 99}, p)
	windowed, note := tailLatency(&workloadSpec{tail: 99, windows: 5}, p)
	if whole != 500 {
		t.Errorf("whole-phase p99 = %g, want the burst's 500", whole)
	}
	if windowed != 9.8 {
		t.Errorf("windowed tail = %g, want 9.8 (%s)", windowed, note)
	}
}
