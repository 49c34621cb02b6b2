package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/perfmetrics/eventlens/internal/core"
)

// env is the environment fingerprint printed with every result. Results
// are comparable only when CPU, NProc, GOMAXPROCS and Go agree; Commit
// names the code measured (a tree digest where no git metadata exists).
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() env {
	return env{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit()}
}

// machine is the part of the fingerprint that must match for two results
// to be compared.
func (e env) machine() string {
	return fmt.Sprintf("%s|%d|%d|%s", e.CPU, e.NProc, e.GOMAXPROCS, e.Go)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the checked-out commit from .git in the working
// directory, or else a digest of the source tree.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(id))
		}
		if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if id, n, ok := strings.Cut(line, " "); ok && n == name {
					return id
				}
			}
		}
	}
	return "tree:" + treeDigest(".")
}

// treeDigest hashes every regular file under root outside hidden
// directories, in path order.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		_, _ = h.Write(data) // a hash.Hash never returns an error
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// savedRun is one run's saved standard output.
type savedRun struct {
	file, workload string
	trace          bool
	env            env
	metrics        map[string]float64
}

func readRun(path string) (*savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &savedRun{file: path}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "workload "); ok {
			f := strings.Fields(rest)
			r.workload = f[0]
			r.trace = strings.HasSuffix(rest, "trace true")
		}
		if rest, ok := strings.CutPrefix(line, "fingerprint "); ok {
			if err := json.Unmarshal([]byte(rest), &r.env); err != nil {
				return nil, fmt.Errorf("%s: fingerprint: %w", path, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || r.workload == "" {
		return nil, fmt.Errorf("%s: not a saved eventbench run", path)
	}
	r.metrics = map[string]float64{}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

// compareRuns summarises saved runs: per workload, commit and metric, the
// median and quartiles over runs and the spread (q3-q1)/median. It refuses
// runs whose machine fingerprints differ.
func compareRuns(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("compare: no saved runs given")
	}
	type group struct {
		workload, commit string
		trace            bool
	}
	groups := map[group][]*savedRun{}
	var machine string
	for _, p := range paths {
		r, err := readRun(p)
		if err != nil {
			return err
		}
		if machine == "" {
			machine = r.env.machine()
		} else if r.env.machine() != machine {
			return fmt.Errorf("compare: %s ran on %q, not %q; results from different machines are not compared",
				p, r.env.machine(), machine)
		}
		g := group{r.workload, r.env.Commit, r.trace}
		groups[g] = append(groups[g], r)
	}
	keys := make([]group, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.commit < b.commit
	})
	for _, g := range keys {
		runs := groups[g]
		fmt.Fprintf(w, "%s commit %s trace %v: %d runs\n", g.workload, g.commit, g.trace, len(runs))
		names := sortedKeys(runs[0].metrics)
		for _, name := range names {
			var vals []float64
			for _, r := range runs {
				vals = append(vals, r.metrics[name])
			}
			q1, q2, q3 := quartiles(vals)
			spread := 0.0
			if !core.ExactEq(q2, 0) {
				spread = (q3 - q1) / q2
			}
			fmt.Fprintf(w, "  %-34s median %14.6f  q1 %14.6f  q3 %14.6f  spread %.4f\n", name, q2, q1, q3, spread)
		}
	}
	return nil
}
