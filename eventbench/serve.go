package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/perfmetrics/eventlens/internal/par"
	"github.com/perfmetrics/eventlens/internal/server"
)

// The serve mix's load: an open-loop Poisson stream at serveRate requests
// per second, of which sweepShare are new (tau, alpha) sweep configs. The
// rate keeps the two cores under about half busy on the reference box (see
// WORKLOADS.md), so latency reflects service, not a growing backlog.
const (
	serveRate  = 300.0
	sweepShare = 0.06
	replicas   = 2
	// healthzProbes is how many /healthz round trips measure the harness's
	// own cost after the traced phase.
	healthzProbes = 200
)

// request is one request of the open-loop stream: when it is due, which
// replica receives it and which template it sends.
type request struct {
	due     time.Duration
	replica int
	tmpl    int
}

// makeStream draws the request stream from the seed. Templates 0..nBase-1
// were all served during set-up; each new sweep config appends the next
// template; every other request repeats a template served so far, chosen
// uniformly.
func makeStream(seed int64, rate, share float64, horizon time.Duration, nBase, nSweeps int) []request {
	rng := rand.New(rand.NewSource(seed))
	served := nBase
	var out []request
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= horizon {
			return out
		}
		r := request{due: t, replica: rng.Intn(replicas)}
		if rng.Float64() < share && served < nBase+nSweeps {
			r.tmpl = served
			served++
		} else {
			r.tmpl = rng.Intn(served)
		}
		out = append(out, r)
	}
}

// sweepOrder returns the order in which the stream draws new sweep
// configs: the benchmarks take turns, so every stretch of the stream holds
// each benchmark's (differently priced) analyses in equal measure, and the
// seed picks each benchmark's configs. Config i analyses benchmark i%4.
func sweepOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(^seed)) // apart from the stream's own draws
	const benches = 4
	perm := rng.Perm(n / benches)
	out := make([]int, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, perm[j/benches]*benches+j%benches)
	}
	return out
}

// sample is what the client saw of one request.
type sample struct {
	due, start, done time.Time
	status           int
	cache            string // X-Eventlens-Cache
	forwarded        bool   // X-Eventlens-Served-By present
	err              error
}

// sendStream sends reqs in due order over one client, each no earlier than
// origin+due, and records every request into out[i]. A request whose
// predecessor is still in flight is sent late; its latency still counts from
// its due time.
func sendStream(ctx context.Context, client *http.Client, baseURL string, origin time.Time, reqs []request, idx []int,
	tmpls []template, out []sample) {
	for _, i := range idx {
		r := reqs[i]
		due := origin.Add(r.due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		out[i] = send(ctx, client, baseURL, tmpls[r.tmpl])
		out[i].due = due
	}
}

// send performs one request and checks its body against the template's
// digest.
func send(ctx context.Context, client *http.Client, baseURL string, t template) sample {
	s := sample{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+t.Route, strings.NewReader(t.Body))
	if err != nil {
		s.err, s.done = err, time.Now()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		s.err, s.done = err, time.Now()
		return s
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; a close error changes nothing
	s.done = time.Now()
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Eventlens-Cache")
	s.forwarded = resp.Header.Get("X-Eventlens-Served-By") != ""
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s %s: status %d", t.Route, t.Body, resp.StatusCode)
	default:
		s.err = checkDigest(t.Route+" "+t.Body, t.Digest, body)
	}
	return s
}

// newClient returns a client holding at most one connection, so the load
// generator uses one connection per replica.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// cluster is the two-replica serving tier on loopback.
type cluster struct {
	servers []*server.Server
	urls    []string
	clients []*http.Client
	dir     string
}

func newCluster() (*cluster, error) {
	c := &cluster{dir: filepath.Join(".bench_build", fmt.Sprintf("serve-store-%d", os.Getpid()))}
	var lns []net.Listener
	for i := 0; i < replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				_ = l.Close() // unused listener; nothing to report
			}
			return nil, err
		}
		lns = append(lns, ln)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
		c.clients = append(c.clients, newClient())
	}
	// The daemon's default logger writes a text line per request; keep that
	// cost but not the output.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for i, ln := range lns {
		s, err := server.New(server.Config{
			Listener: ln,
			Peers:    c.urls,
			SelfURL:  c.urls[i],
			StoreDir: filepath.Join(c.dir, "replica"+strconv.Itoa(i)),
			Logger:   logger,
		})
		if err != nil {
			for _, l := range lns {
				_ = l.Close() // never served; nothing to report
			}
			return nil, err
		}
		c.servers = append(c.servers, s)
	}
	return c, nil
}

// serveRun carries the serve workload's state across its phases.
type serveRun struct {
	o     options
	c     *cluster
	tmpls []template
	nBase int
	notes []string
}

// runServe starts the tier, warms it with every repeated request, then
// drives the open-loop stream. The replicas and the load generator run as
// tasks of one par.ForErr, so the function returns only after every
// replica has shut down.
func runServe(o options) (*result, error) {
	c, err := newCluster()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var res *result
	var driveErr error
	err = par.ForErr(replicas+1, replicas+1, func(i int) error {
		// Whichever task ends first stops the others: a replica that fails
		// to start must not leave the generator waiting for it.
		defer cancel()
		if i < replicas {
			return c.servers[i].Run(ctx)
		}
		res, driveErr = (&serveRun{o: o, c: c}).drive(ctx)
		return nil
	})
	if driveErr != nil {
		return res, driveErr
	}
	return res, err
}

func (s *serveRun) drive(ctx context.Context) (*result, error) {
	for _, srv := range s.c.servers {
		if _, err := srv.WaitAddr(ctx); err != nil {
			return nil, err
		}
	}
	s.nBase = len(digests.ServeBase)
	s.tmpls = append([]template(nil), digests.ServeBase...)
	for _, k := range sweepOrder(s.o.seed, len(digests.ServeSweeps)) {
		t := sweepTemplate(k)
		t.Digest = digests.ServeSweeps[k]
		s.tmpls = append(s.tmpls, t)
	}
	// Set-up: every repeated request once on each replica, so collections
	// and each key's first computation happen here.
	err := par.ForErr(replicas, replicas, func(r int) error {
		for _, t := range s.tmpls[:s.nBase] {
			if smp := send(ctx, s.c.clients[r], s.c.urls[r], t); smp.err != nil {
				return fmt.Errorf("warm-up: %w", smp.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{setup: time.Since(processStart).Seconds()}
	if s.o.setupProbe {
		return res, errProbeDone
	}
	phaseLen := time.Duration(s.o.seconds * float64(time.Second))
	stream := makeStream(s.o.seed, serveRate, sweepShare, 2*phaseLen, s.nBase, len(s.tmpls)-s.nBase)
	first, second := splitStream(stream, phaseLen)
	res.untraced, _ = s.phase(ctx, first, phaseLen, nil)
	if !s.o.trace {
		res.notes = s.notes
		return res, nil
	}
	t := newTracer()
	var samples []sample
	res.traced, samples = s.phase(ctx, second, phaseLen, t)
	m := layerValues{}
	m.fromSpans(t)
	if err := s.layers(ctx, m, res, samples); err != nil {
		return nil, err
	}
	res.layers, res.notes = m.finish(res, t, s.o, append(s.notes, res.notes...))
	return res, nil
}

// splitStream cuts the stream at phaseLen into two phases, each with due
// times counted from its own start.
func splitStream(stream []request, phaseLen time.Duration) (first, second []request) {
	for _, r := range stream {
		if r.due < phaseLen {
			first = append(first, r)
			continue
		}
		r.due -= phaseLen
		second = append(second, r)
	}
	return first, second
}

// phase sends one phase's requests, one sender per replica, and measures
// each from its due time. With a tracer, every request becomes an op span
// with the generator's lateness and the server's service time as children.
func (s *serveRun) phase(ctx context.Context, reqs []request, length time.Duration, t *tracer) (*phase, []sample) {
	out := make([]sample, len(reqs))
	perReplica := make([][]int, replicas)
	for i, r := range reqs {
		perReplica[r.replica] = append(perReplica[r.replica], i)
	}
	a0, cpu0, st0 := totalAlloc(), cpuSeconds(), readCPUStat()
	origin := time.Now()
	// sendStream bodies cannot fail; errors are per sample.
	_ = par.ForErr(replicas, replicas, func(r int) error {
		sendStream(ctx, s.c.clients[r], s.c.urls[r], origin, reqs, perReplica[r], s.tmpls, out)
		return nil
	})
	p := &phase{alloc: totalAlloc() - a0, length: length.Seconds(), steal: readCPUStat().stealSince(st0)}
	var last time.Time
	for i, smp := range out {
		due := smp.due
		if smp.done.IsZero() {
			p.record(reqs[i].due.Seconds(), 0, errors.New("not sent"))
			continue
		}
		err := smp.err
		if smp.status == http.StatusTooManyRequests {
			err = fmt.Errorf("refused (429): %w", err)
		}
		p.record(reqs[i].due.Seconds(), ms(smp.done.Sub(due)), err)
		if smp.done.After(last) {
			last = smp.done
		}
		if t != nil {
			root := t.add("op", i, -1, due, smp.done)
			t.add("loadgen.wait", i, root, due, smp.start)
			t.add("server.route."+routeName(s.tmpls[reqs[i].tmpl].Route), i, root, smp.start, smp.done)
		}
	}
	p.wall = last.Sub(origin).Seconds()
	s.notes = append(s.notes, fmt.Sprintf("process CPU busy %.3f of %d cores over a %.1f s phase",
		(cpuSeconds()-cpu0)/p.wall/float64(runtime.NumCPU()), runtime.NumCPU(), p.wall))
	return p, out
}

// routeName shortens a route to its last path element.
func routeName(route string) string {
	return route[strings.LastIndex(route, "/")+1:]
}

// layers derives the serve per-layer metrics from the traced phase's
// samples, the replicas' /metrics counters and a run of /healthz round
// trips, which price the harness's own cost.
func (s *serveRun) layers(ctx context.Context, m layerValues, res *result, samples []sample) error {
	byCache := map[string][]float64{}
	var forwarded, local, lag []float64
	for _, smp := range samples {
		if smp.done.IsZero() {
			continue
		}
		lag = append(lag, ms(smp.start.Sub(smp.due)))
		if smp.err != nil || smp.cache == "" {
			continue
		}
		svc := ms(smp.done.Sub(smp.start))
		byCache[smp.cache] = append(byCache[smp.cache], svc)
		if smp.forwarded {
			forwarded = append(forwarded, svc)
		} else {
			local = append(local, svc)
		}
	}
	m["loadgen.lag_p99_ms"] = percentile(lag, 99)
	hit, disk, miss := len(byCache["hit"]), len(byCache["disk"]), len(byCache["miss"])
	for _, src := range []string{"hit", "disk", "miss"} {
		if len(byCache[src]) > 0 {
			m["server."+src+"_ms"] = median(byCache[src])
		}
	}
	if len(forwarded) > 0 {
		m["shard.forwarded_ms"] = median(forwarded)
	}
	if len(local) > 0 {
		m["shard.local_ms"] = median(local)
	}
	cached := hit + disk + miss
	m["shard.forwarded_share"] = ratio(len(forwarded), cached)
	m["server.mem_hit_ratio"] = ratio(hit, cached)
	m["store.disk_hit_ratio"] = ratio(disk, disk+miss)
	m["server.miss_ratio"] = ratio(miss, cached)
	res.notes = append(res.notes,
		fmt.Sprintf("ratio base: %d traced analyze/validate/matrix requests: %d hit, %d disk, %d miss, %d forwarded",
			cached, hit, disk, miss, len(forwarded)),
		fmt.Sprintf("store.disk_hit_ratio base: %d disk of %d memory misses", disk, disk+miss))

	var analyses, collections, rejected float64
	for r := range s.c.urls {
		v, err := scrape(ctx, s.c.clients[r], s.c.urls[r], "eventlensd_pipeline_runs_total",
			"eventlensd_collections_total", "eventlensd_admission_rejected_total")
		if err != nil {
			return err
		}
		analyses += v["eventlensd_pipeline_runs_total"]
		collections += v["eventlensd_collections_total"]
		rejected += v["eventlensd_admission_rejected_total"]
	}
	m["server.set_reuse_ratio"] = analyses / max(collections, 1)
	m["server.rejected"] = rejected
	res.notes = append(res.notes, fmt.Sprintf("server.set_reuse_ratio base: %g analyses over %g collections on both replicas",
		analyses, collections))

	var healthz []float64
	for i := 0; i < healthzProbes; i++ {
		start := time.Now()
		if err := get(ctx, s.c.clients[0], s.c.urls[0]+"/healthz"); err != nil {
			return err
		}
		healthz = append(healthz, ms(time.Since(start)))
	}
	m["loadgen.healthz_ms"] = median(healthz)
	return nil
}

// get fetches a URL and discards its body.
func get(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// scrape reads counters from a replica's /metrics endpoint, summing every
// labelled series of each named counter.
func scrape(ctx context.Context, client *http.Client, baseURL string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, n := range names {
			if line == "" || line[0] == '#' || !strings.HasPrefix(line, n) {
				continue
			}
			rest := line[len(n):]
			if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			out[n] += v
		}
	}
	return out, sc.Err()
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks of 1/100 s.
	f := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	// A field that does not parse reads as zero; the value only feeds a note.
	u, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (u + st) / 100
}
