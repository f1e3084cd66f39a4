package main

import (
	"bytes"
	"encoding/json"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

// modulePackages lists the repro module's packages the way the go tool
// sees them: directories with Go files, skipping testdata and directories
// starting with "." or "_" (this benchmark lives in one).
func modulePackages(t *testing.T) []string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := "repro"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("found only %d packages under %s", len(pkgs), root)
	}
	return pkgs
}

func TestEveryPackageHasALayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layerNames {
		known[l] = true
	}
	found := map[string]bool{}
	for _, pkg := range modulePackages(t) {
		found[pkg] = true
		l, ok := packageLayer[pkg]
		if !ok {
			t.Errorf("package %s has no layer in packageLayer", pkg)
			continue
		}
		if !known[l] || l == "runtime" {
			t.Errorf("package %s maps to %q, which is not a repository layer", pkg, l)
		}
	}
	for pkg := range packageLayer {
		if !found[pkg] {
			t.Errorf("packageLayer lists %s, which is not a package of the module", pkg)
		}
	}
	for _, live := range []string{"psnet", "lambda", "objstore", "distml", "platform/livebackend", "lint"} {
		if l := packageLayer["repro/internal/"+live]; l != "other" {
			t.Errorf("%s maps to %q, want other", live, l)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Shard).siftDown":                          "repro/internal/sim",
		"repro/internal/experiments.runMacroTrace.func1":                "repro/internal/experiments",
		"repro/internal/experiments.cells[go.shape.struct { x.y/z.T }]": "repro/internal/experiments",
		"repro.TestDeterminism":                                         "repro",
		"runtime.gcBgMarkWorker":                                        "runtime",
		"math.Log":                                                      "math",
		"main.runChild":                                                 "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleLayerUsesInnermostRepoFrame(t *testing.T) {
	p := &profile{locations: map[uint64][]string{
		1: {"runtime.mallocgc"},
		2: {"fmt.Errorf"},
		3: {"repro/internal/faas.(*Platform).InvokeGroup"},
		4: {"repro/internal/experiments.(*chaosTenant).tryInvoke"},
		5: {"math.Log", "repro/internal/sim.(*Rand).Exp"}, // math.Log inlined into Exp
		6: {"repro/internal/traffic.(*diurnal).Next"},
		7: {"runtime.scanobject"},
		8: {"runtime.gcDrain"},
		9: {"runtime.gcBgMarkWorker"},
	}}
	for name, c := range map[string]struct {
		locs []uint64
		want string
	}{
		"runtime leaf under faas": {[]uint64{1, 2, 3, 4}, "faas"},
		"inlined std under sim":   {[]uint64{5, 6}, "sim"},
		"GC worker":               {[]uint64{7, 8, 9}, "runtime"},
		"repo leaf":               {[]uint64{4}, "experiments"},
	} {
		if got := sampleLayer(p, &sample{locs: c.locs}); got != c.want {
			t.Errorf("%s: layer %q, want %q", name, got, c.want)
		}
	}
}

var allocSink [][]byte

//go:noinline
func allocForProfileTest() {
	for i := 0; i < 64; i++ {
		allocSink = append(allocSink, make([]byte, 1<<16))
	}
}

func TestParseProfileAttributesAllocations(t *testing.T) {
	allocForProfileTest()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	i, err := p.valueIndex("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var mine int64
	for k := range p.samples {
		s := &p.samples[k]
		for _, id := range s.locs {
			for _, fn := range p.locations[id] {
				if strings.HasSuffix(fn, ".allocForProfileTest") {
					mine += s.values[i]
					if l := sampleLayer(p, s); l != "other" {
						t.Errorf("benchmark frame attributed to %q, want other", l)
					}
				}
			}
		}
	}
	if mine < 1<<20 {
		t.Fatalf("profile attributes %d bytes to allocForProfileTest, want at least 1 MiB of its 4 MiB", mine)
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which the result
// format is checked against, in step with the metrics this program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, json []struct{ Name, Unit, Better string }, prog []metric) {
		if len(json) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(json), len(prog))
		}
		for i, m := range json {
			if p := prog[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", kind, i, m, p)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer())
}

func TestHeapSamplerSeesAllocationsAndStops(t *testing.T) {
	h := startHeapSampler()
	allocForProfileTest()
	if peak := h.stop(); peak < 1<<20 {
		t.Fatalf("heap peak %v bytes, want at least 1 MiB", peak)
	}
}
