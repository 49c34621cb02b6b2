package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/server"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// digestFile holds the SHA-256 of every output the benchmark times: the
// analysis reports, the matrix reports and the HTTP bodies of the serve
// mix. Regenerate it with --gen-digests after a change that is meant to
// alter output bytes.
//
//go:embed data/digests.json
var digestFile []byte

// digestData is the parsed digest file.
type digestData struct {
	// Outputs maps an output's name ("report/<benchmark>",
	// "matrix/<selection>") to its digest.
	Outputs map[string]string `json:"outputs"`
	// ServeBase are the serve mix's repeated requests, each with the digest
	// of its response body.
	ServeBase []template `json:"serve_base"`
	// ServeSweeps holds the response digest of sweepTemplate(i) at index i.
	ServeSweeps []string `json:"serve_sweeps"`
}

// template is one HTTP request of the serve mix.
type template struct {
	Route  string `json:"route"`
	Body   string `json:"body"`
	Digest string `json:"digest"`
}

var digests digestData

func loadDigests() error {
	if err := json.Unmarshal(digestFile, &digests); err != nil {
		return fmt.Errorf("digest data: %w", err)
	}
	return nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check compares an output with its expected digest.
func check(name string, out []byte) error {
	want, ok := digests.Outputs[name]
	if !ok {
		return fmt.Errorf("output %s: no expected digest", name)
	}
	return checkDigest(name, want, out)
}

func checkDigest(name, want string, out []byte) error {
	if got := digestOf(out); got != want {
		return fmt.Errorf("output %s: digest %.12s, want %.12s", name, got, want)
	}
	return nil
}

// sweepCount is the size of the serve mix's (tau, alpha) sweep grid.
const sweepCount = 4 * 16 * 16

// sweepTemplate returns sweep config i of the serve mix: an analysis of one
// benchmark with tau and alpha scaled off the benchmark's defaults, so its
// key is new to every cache while its measurement set is not.
func sweepTemplate(i int) template {
	names := suite.Names()
	b, _ := suite.ByName(names[i%len(names)]) // a registry name always resolves
	cfg := b.Config
	cfg.Tau *= 1 + float64((i/4)%16+1)/32
	cfg.Alpha *= 1 + float64((i/64)%16+1)/32
	// Marshalling a string and finite floats cannot fail.
	body, _ := json.Marshal(struct {
		Benchmark string      `json:"benchmark"`
		Config    core.Config `json:"config"`
	}{b.Name, cfg})
	return template{Route: "/v1/analyze", Body: string(body)}
}

// generateDigests recomputes every expected output with the default worker
// counts, cross-checks each against the Workers=1 computation of the same
// input, and writes the digest file.
func generateDigests(path string, log io.Writer) error {
	ctx := context.Background()
	d := digestData{Outputs: map[string]string{}}
	put := func(name string, out, serial []byte) error {
		if !bytes.Equal(out, serial) {
			return fmt.Errorf("%s: default and Workers=1 outputs differ", name)
		}
		d.Outputs[name] = digestOf(out)
		return nil
	}
	for _, name := range suite.Names() {
		b, err := suite.ByName(name)
		if err != nil {
			return err
		}
		text, err := coldAnalysis(ctx, b)
		if err != nil {
			return err
		}
		serial, err := serialAnalysis(ctx, b)
		if err != nil {
			return err
		}
		if err := put("report/"+name, []byte(text), []byte(serial)); err != nil {
			return err
		}
	}
	reg, err := machine.NewRegistry()
	if err != nil {
		return err
	}
	matrices := map[string]matrix.Request{
		"matrix/all":    {},
		"matrix/branch": {Benchmarks: []string{"branch"}},
	}
	for _, p := range reg.Names() {
		matrices["matrix/platform/"+p] = matrix.Request{Platforms: []string{p}}
		if def, err := reg.Def(p); err == nil && def.Class == "cpu" {
			matrices["matrix/pair/"+p+"/dcache"] = matrix.Request{Platforms: []string{p}, Benchmarks: []string{"dcache"}}
		}
	}
	for _, name := range sortedKeys(matrices) {
		req := matrices[name]
		fmt.Fprintln(log, "digest", name)
		text, err := matrixText(ctx, reg, req)
		if err != nil {
			return err
		}
		req.Workers = 1
		serial, err := matrixText(ctx, reg, req)
		if err != nil {
			return err
		}
		if err := put(name, []byte(text), []byte(serial)); err != nil {
			return err
		}
	}
	if err := serveDigests(ctx, &d, log); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// serialAnalysis is coldAnalysis on the serial path: one collection worker
// and one analysis worker.
func serialAnalysis(ctx context.Context, b suite.Benchmark) (string, error) {
	p, err := b.NewPlatform()
	if err != nil {
		return "", err
	}
	run := b.DefaultRun
	run.Workers = 1
	set, err := b.Run(p, run)
	if err != nil {
		return "", err
	}
	cfg := b.Config
	cfg.Workers = 1
	res, err := b.AnalyzeSet(ctx, set, cfg)
	if err != nil {
		return "", err
	}
	defs, err := res.DefineMetrics(b.Signatures)
	if err != nil {
		return "", err
	}
	return core.FormatAnalysisReport(res, cfg.ProjectionTol, b.MetricTable, defs), nil
}

// serveDigests builds the serve mix's request templates and the digests of
// their response bodies, from an in-process daemon with default settings,
// cross-checked against one whose pipelines run on one worker. Analyze
// bodies echo the worker settings, so for them the cross-check compares the
// report text the body carries.
func serveDigests(ctx context.Context, d *digestData, log io.Writer) error {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	def, err := server.New(server.Config{Logger: quiet})
	if err != nil {
		return err
	}
	serial, err := server.New(server.Config{Logger: quiet, PipelineWorkers: 1})
	if err != nil {
		return err
	}
	hDef, hSerial := def.Handler(), serial.Handler()
	digest := func(t template) (string, error) {
		a, err := serveOnce(hDef, t)
		if err != nil {
			return "", err
		}
		b, err := serveOnce(hSerial, t)
		if err != nil {
			return "", err
		}
		if t.Route == "/v1/analyze" {
			a2, b2 := reportField(a), reportField(b)
			if a2 == "" || a2 != b2 {
				return "", fmt.Errorf("%s %s: default and Workers=1 reports differ", t.Route, t.Body)
			}
		} else if !bytes.Equal(a, b) {
			return "", fmt.Errorf("%s %s: default and Workers=1 bodies differ", t.Route, t.Body)
		}
		return digestOf(a), nil
	}
	var base []template
	for _, name := range suite.Names() {
		b, err := suite.ByName(name)
		if err != nil {
			return err
		}
		base = append(base, template{Route: "/v1/analyze", Body: fmt.Sprintf(`{"benchmark":%q}`, name)})
		for _, sig := range b.Signatures {
			base = append(base, template{Route: "/v1/metrics/define", Body: fmt.Sprintf(`{"benchmark":%q,"metric":%q}`, name, sig.Name)})
		}
		res, _, err := b.Analyze(b.DefaultRun)
		if err != nil {
			return err
		}
		base = append(base, template{Route: "/v1/events/explain", Body: fmt.Sprintf(`{"benchmark":%q,"event":%q}`, name, res.SelectedEvents[0])})
	}
	base = append(base,
		template{Route: "/v1/events/validate", Body: `{"platform":"spr"}`},
		template{Route: "/v1/events/validate", Body: `{"platform":"mi250x"}`},
		template{Route: "/v1/matrix", Body: `{"benchmarks":["branch"]}`})
	for i := range base {
		fmt.Fprintln(log, "digest", base[i].Route, base[i].Body)
		if base[i].Digest, err = digest(base[i]); err != nil {
			return err
		}
	}
	d.ServeBase = base
	fmt.Fprintf(log, "digest %d sweep configs\n", sweepCount)
	for i := 0; i < sweepCount; i++ {
		dg, err := digest(sweepTemplate(i))
		if err != nil {
			return err
		}
		d.ServeSweeps = append(d.ServeSweeps, dg)
	}
	return nil
}

// serveOnce sends one request to an in-process handler.
func serveOnce(h http.Handler, t template) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, t.Route, strings.NewReader(t.Body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", t.Route, t.Body, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// reportField extracts the report text of an analyze response body.
func reportField(body []byte) string {
	var v struct {
		Report string `json:"report"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return ""
	}
	return v.Report
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
