package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// provenance is recorded next to every result, so results from different
// hosts, commits or scales are never compared by accident.
type provenance struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Date     string  `json:"date"`
	// Commit is "unknown" in a checkout that is not a git repository;
	// SourceSHA256, a digest of every .go file and go.mod, identifies the
	// code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	OS           string `json:"os_arch"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	// The kernel runs single-threaded and the experiment pool serially.
	Shards         int            `json:"shards"`
	SimWorkers     int            `json:"sim_workers"`
	ExperimentPool int            `json:"experiment_pool"`
	Scale          scale          `json:"scale"`
	TablesSHA256   string         `json:"tables_sha256"`
	Runs           map[string]int `json:"runs"`
	Problems       []string       `json:"problems,omitempty"`
}

func baseProvenance(o options) provenance {
	p := provenance{
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Date:      time.Now().UTC().Format(time.RFC3339),
		Commit:    "unknown",
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards: 1, SimWorkers: 1, ExperimentPool: 1,
	}
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if sum, err := sourceDigest(o.root); err == nil {
		p.SourceSHA256 = sum
	} else {
		p.SourceSHA256 = "error: " + err.Error()
	}
	return p
}

// sourceDigest hashes the path and contents of every .go file and go.mod
// under root, skipping hidden directories such as .git and .bench_build.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// report prints a readable block: provenance, then one line per metric.
func report(w io.Writer, p provenance, specs []metric, res result, detail map[string]string) {
	fmt.Fprintf(w, "== %s (seed %d, trace %v): %d runs, %d failed, correct=%v ==\n",
		p.Workload, p.Seed, p.Trace, res.Attempted, res.Failed, res.Correct)
	for _, problem := range p.Problems {
		fmt.Fprintf(w, "problem: %s\n", problem)
	}
	prov, _ := json.Marshal(p) // plain data: cannot fail
	fmt.Fprintf(w, "provenance: %s\n", prov)
	for _, s := range specs {
		note := detail[s.name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %-28s %16.6g %-11s %s is better%s\n",
			s.name, res.Metrics[s.name].Value, s.unit, s.better, note)
	}
}

// saveResult writes the provenance, the result line and the per-run
// samples to .bench_build/results/<workload>-seed<seed>-trace<0|1>.json.
func saveResult(o options, w *workload, p provenance, res result, samples map[string][]float64) {
	dir := filepath.Join(o.root, ".bench_build", "results")
	data, err := json.MarshalIndent(struct {
		Provenance provenance           `json:"provenance"`
		Result     result               `json:"result"`
		Samples    map[string][]float64 `json:"samples"`
	}{p, res, samples}, "", "  ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		trace := 0
		if o.trace {
			trace = 1
		}
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, trace)), data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving result: %v\n", err)
	}
}
