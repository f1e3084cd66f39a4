// Command perfbench is the repository's benchmark. It runs one CE-scaling
// workload for a fixed time, each run in a fresh child process, checks
// every run's output, and prints the workload's end-to-end metrics, or
// with -trace 1 its per-layer metrics, as the last line of standard
// output. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds the binary):
//
//	bash _bench/run.sh --workload trace-diurnal --seed 2023 --seconds 20 --trace 0
//	bash _bench/run.sh --workload all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// options are the parent process's settings, shared by every workload it runs.
type options struct {
	exe     string // this binary, started again for each child run
	root    string // the repository checkout: results go to root/.bench_build
	seed    uint64
	seconds float64
	trace   bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: trace-diurnal|fleet-control|chaos-faults|paper-all|all")
	seed := fs.Uint64("seed", 2023, "experiment seed")
	seconds := fs.Float64("seconds", 20, "how long to keep starting measured runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled runs")
	root := fs.String("root", ".", "repository root; results are written under root/.bench_build")
	child := fs.String("child", "", "run one child of this mode (plain|profile|observe) and print its result")
	shards := fs.Int("shards", 1, "child: kernel shards and sim workers")
	out := fs.String("out", "", "child: directory for profiles and the metrics snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *child != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		return runChild(w, *seed, *shards, *child, *out)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	o := options{exe: exe, root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1}
	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	prov := baseProvenance(o)
	total := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range selected {
		res := measure(w, o, prov)
		if len(selected) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// batch starts a workload's child runs and keeps its failure count, its
// problems and the tables digest every run must reproduce.
type batch struct {
	o         options
	w         *workload
	attempted int
	failed    int
	problems  []string
	digest    string
	outcomes  map[string]float64
	modes     map[string]int
	// samples holds the per-run values behind each median.
	samples map[string][]float64
}

func (b *batch) spawn(mode string, shards int, outDir string) (childResult, bool) {
	b.attempted++
	b.modes[fmt.Sprintf("%s/shards=%d", mode, shards)]++
	res, err := spawnChild(b.o, b.w, mode, shards, outDir)
	if err == nil && len(res.Errors) > 0 {
		err = fmt.Errorf("%s", strings.Join(res.Errors, "; "))
	}
	if err == nil && b.digest != "" && res.TablesSHA256 != b.digest {
		err = fmt.Errorf("tables sha256 %s differs from the first run's %s", res.TablesSHA256, b.digest)
	}
	if err == nil && b.outcomes != nil && !maps.Equal(res.Outcomes, b.outcomes) {
		err = fmt.Errorf("simulated outcomes %v differ from the first run's %v", res.Outcomes, b.outcomes)
	}
	if err != nil {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf("%s run at shards=%d: %v", mode, shards, err))
		return res, false
	}
	b.digest, b.outcomes = res.TablesSHA256, res.Outcomes
	return res, true
}

// Runs stop starting after hardStop whatever -seconds says, so one
// invocation ends well within three minutes.
const (
	minRuns  = 3
	hardStop = 120 * time.Second
)

// measure runs workload w for o.seconds and returns its result line; it
// also prints a readable report and writes it with its provenance under
// .bench_build/results.
func measure(w *workload, o options, prov provenance) result {
	b := &batch{o: o, w: w, modes: map[string]int{}, samples: map[string][]float64{}}
	start := time.Now()
	going := func() bool {
		el := time.Since(start)
		return el < hardStop && (b.attempted < minRuns || el.Seconds() < o.seconds)
	}
	var m map[string]float64
	var detail map[string]string
	if o.trace {
		m, detail = measureLayers(b, going)
	} else {
		m, detail = measureEndToEnd(b, going)
	}

	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	specs := endToEnd
	if o.trace {
		specs = perLayer()
	}
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			b.problems = append(b.problems, fmt.Sprintf("metric %s has no value", s.name))
			v = 0
		}
		res.Metrics[s.name] = value{Value: v, Unit: s.unit}
	}
	res.Correct = b.failed == 0 && len(b.problems) == 0

	prov.Workload, prov.Scale = w.name, w.scale
	prov.TablesSHA256, prov.Runs, prov.Problems = b.digest, b.modes, b.problems
	report(os.Stdout, prov, specs, res, detail)
	saveResult(o, w, prov, res, b.samples)
	return res
}

// setupRuns is how many setup-only runs follow each plain run. They take
// a few milliseconds each and give setup_s enough samples on paper-all,
// whose plain runs are few.
const setupRuns = 3

// measureEndToEnd starts plain runs, each followed by setup-only runs,
// while going() holds, then verifies a sharded workload once at shards=2,
// sim-workers=2.
func measureEndToEnd(b *batch, going func() bool) (map[string]float64, map[string]string) {
	var runs, setups []childResult
	for going() {
		if res, ok := b.spawn(modePlain, 1, ""); ok {
			runs = append(runs, res)
			setups = append(setups, res)
		}
		for i := 0; i < setupRuns; i++ {
			if res, err := spawnChild(b.o, b.w, modeSetup, 1, ""); err != nil {
				b.problems = append(b.problems, fmt.Sprintf("setup run: %v", err))
			} else {
				setups = append(setups, res)
			}
		}
	}
	if b.w.sharded {
		b.spawn(modePlain, 2, "")
	}
	detail := map[string]string{}
	if len(runs) == 0 {
		return nil, detail
	}
	// Run times are scaled to reference speed (see reference.go). Setup,
	// mostly process start-up in the kernel, slows far less than the
	// reference when the host is busy, so it is not scaled.
	scaled := func(r childResult) float64 { return r.WallS * refNominalS / r.RefS }
	m := map[string]float64{
		"wall_s":      b.median("wall_s", runs, scaled),
		"setup_s":     b.median("setup_s", setups, func(r childResult) float64 { return r.setupS }),
		"peak_rss_mb": b.median("peak_rss_mb", runs, func(r childResult) float64 { return r.PeakRSSMiB }),
		"run_ok_frac": float64(b.attempted-b.failed) / float64(b.attempted),
	}
	b.median("raw.wall_s", runs, func(r childResult) float64 { return r.WallS })
	b.median("raw.ref_s", runs, func(r childResult) float64 { return r.RefS })
	for name, count := range b.w.rates {
		m[name] = b.median(name, runs, func(r childResult) float64 { return ratio(r.Counts[count], scaled(r)) })
	}
	for id := range runs[0].ArtifactS {
		b.median("artifact_s."+id, runs, func(r childResult) float64 { return r.ArtifactS[id] })
	}
	for k, v := range runs[0].Outcomes {
		m[k] = v
	}
	for _, s := range endToEnd {
		if _, ok := m[s.name]; !ok {
			m[s.name] = 1
			detail[s.name] = "not defined on this workload"
		}
	}
	n := fmt.Sprintf("median of %d runs", len(runs))
	for _, k := range []string{"wall_s", "peak_rss_mb", "events_per_s", "decisions_per_s"} {
		if detail[k] == "" {
			detail[k] = n
		}
	}
	detail["setup_s"] = fmt.Sprintf("median of %d runs and setup-only runs", len(setups))
	return m, detail
}

// measureLayers alternates plain and profiled runs while going() holds,
// then makes one observed run. Layer times and allocations come from the
// profiled runs' CPU and allocation profiles, counts from the observed
// run's tables and obs metrics snapshot, and the tracing overhead from
// comparing profiled with plain wall times. The obs collector records
// every simulated event (hundreds of MB on chaos-faults), so it is kept
// out of the profiled runs, whose layer shares it would distort.
func measureLayers(b *batch, going func() bool) (map[string]float64, map[string]string) {
	dir := filepath.Join(b.o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d", b.w.name, b.o.seed))
	if err := os.RemoveAll(dir); err != nil {
		b.problems = append(b.problems, err.Error())
	}
	var plain, prof []childResult
	var cpu, alloc, spans = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for i := 0; going(); i++ {
		if res, ok := b.spawn(modePlain, 1, ""); ok {
			plain = append(plain, res)
		}
		out, err := childDir(dir, fmt.Sprintf("profile-%d", i))
		if err != nil {
			b.problems = append(b.problems, err.Error())
			break
		}
		if res, ok := b.spawn(modeProfile, 1, out); ok {
			prof = append(prof, res)
			if err := attribute(out, cpu, alloc, spans); err != nil {
				b.problems = append(b.problems, err.Error())
			}
		}
	}
	var observed childResult
	exportSpans := map[string]float64{}
	if out, err := childDir(dir, "observe"); err != nil {
		b.problems = append(b.problems, err.Error())
	} else if res, ok := b.spawn(modeObserve, 1, out); ok {
		observed = res
		if err := attribute(out, map[string]float64{}, nil, exportSpans); err != nil {
			b.problems = append(b.problems, err.Error())
		}
	}
	if len(plain) == 0 || len(prof) == 0 || observed.Counts == nil {
		return nil, nil
	}

	n := float64(len(prof))
	totalCPU := 0.0
	for _, v := range cpu {
		totalCPU += v
	}
	m := map[string]float64{}
	for _, l := range layerNames {
		m[l+".self_s"] = cpu[l] / 1e9 / n
		m[l+".self_share"] = ratio(cpu[l], totalCPU)
		m[l+".alloc_mb"] = alloc[l] / (1 << 20) / n
	}
	for _, c := range counters {
		m[c.name] = observed.Counts[c.name]
	}
	events := observed.Counts["sim.events"]
	plainWall := b.median("plain.wall_s", plain, func(r childResult) float64 { return r.WallS })
	m["sim.ns_per_event"] = ratio(b.median("plain.sim.events_wall_s", plain, func(r childResult) float64 { return r.Counts["sim.events_wall_s"] })*1e9, events)
	m["runtime.gc_cpu_share"] = b.median("runtime.gc_cpu_share", plain, func(r childResult) float64 { return r.GCCPUShare })
	m["runtime.mallocs_per_event"] = ratio(b.median("plain.mallocs", plain, func(r childResult) float64 { return r.Mallocs }), events)
	m["runtime.heap_peak_mb"] = b.median("runtime.heap_peak_mb", prof, func(r childResult) float64 { return r.HeapPeakMiB })
	for _, s := range []string{"setup", "run", "check"} {
		m["bench."+s+"_cpu_s"] = spans[s] / 1e9 / n
	}
	m["bench.export_cpu_s"] = exportSpans["export"] / 1e9
	m["bench.trace_overhead_share"] = b.median("profile.wall_s", prof, func(r childResult) float64 { return r.WallS })/plainWall - 1

	return m, map[string]string{
		"sim.self_s": fmt.Sprintf("per run: mean of %d profiled runs, %.0f CPU samples in all", len(prof), totalCPU/1e7),
	}
}

func childDir(dir, name string) (string, error) {
	out := filepath.Join(dir, name)
	return out, os.MkdirAll(out, 0o755)
}

// attribute adds the CPU nanoseconds of out/cpu.pb.gz to cpu by layer and
// to spans by span label, and the allocated bytes of out/heap.pb.gz to
// alloc by layer (when alloc is not nil).
func attribute(out string, cpu, alloc, spans map[string]float64) error {
	p, err := readProfile(filepath.Join(out, "cpu.pb.gz"))
	if err != nil {
		return err
	}
	i, err := p.valueIndex("cpu")
	if err != nil {
		return err
	}
	for k := range p.samples {
		s := &p.samples[k]
		v := float64(s.values[i])
		cpu[sampleLayer(p, s)] += v
		spans[s.labels["span"]] += v
	}
	if alloc == nil {
		return nil
	}
	if p, err = readProfile(filepath.Join(out, "heap.pb.gz")); err != nil {
		return err
	}
	if i, err = p.valueIndex("alloc_space"); err != nil {
		return err
	}
	for k := range p.samples {
		alloc[sampleLayer(p, &p.samples[k])] += float64(p.samples[k].values[i])
	}
	return nil
}

func readProfile(path string) (*profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// median returns the median of f over runs and keeps the values as the
// samples of name.
func (b *batch) median(name string, runs []childResult, f func(childResult) float64) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = f(r)
	}
	b.samples[name] = vals
	return median(vals)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spawnChild runs one child process and decodes its result; setupS is
// from just before the process starts to when its setup ended.
func spawnChild(o options, w *workload, mode string, shards int, outDir string) (childResult, error) {
	var res childResult
	cmd := exec.Command(o.exe,
		"-child", mode, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-shards", fmt.Sprint(shards), "-out", outDir)
	var stdout strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	begin := time.Now()
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("child: %w", err)
	}
	if err := json.Unmarshal([]byte(stdout.String()), &res); err != nil {
		return res, fmt.Errorf("child output: %w", err)
	}
	res.setupS = float64(res.SetupDoneUnixNano-begin.UnixNano()) / 1e9
	if res.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		return res, fmt.Errorf("child GOMAXPROCS %d != parent's %d", res.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	return res, nil
}
