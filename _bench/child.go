package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// Child modes. Each measured run is a fresh child process, as a cebench
// user's run is: the interned cost frontiers and the dataset cache are
// process-global, and a warm second run in one process would hide them.
const (
	modePlain   = "plain"   // untraced: the end-to-end metrics
	modeProfile = "profile" // CPU and allocation profiles: the layer times
	modeObserve = "observe" // obs collector on: the layer counts
	modeSetup   = "setup"   // setup only: more setup_s samples
)

// childResult is what one child run reports to the parent on stdout.
type childResult struct {
	Mode       string `json:"mode"`
	Shards     int    `json:"shards"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// SetupDoneUnixNano is when setup ended; the parent subtracts the time
	// it started the process to get setup_s.
	SetupDoneUnixNano int64 `json:"setup_done_unix_nano"`
	// RefS is the mean of the reference timings before and after the
	// measured call (plain runs only).
	RefS         float64            `json:"ref_s,omitempty"`
	WallS        float64            `json:"wall_s"`
	ArtifactS    map[string]float64 `json:"artifact_s"` // wall time of each experiments.Run
	PeakRSSMiB   float64            `json:"peak_rss_mib"`
	GCCPUShare   float64            `json:"gc_cpu_share"` // of the measured call
	Mallocs      float64            `json:"mallocs"`      // during the measured call
	HeapPeakMiB  float64            `json:"heap_peak_mib,omitempty"`
	TablesSHA256 string             `json:"tables_sha256"`
	Errors       []string           `json:"errors,omitempty"`
	Outcomes     map[string]float64 `json:"outcomes"`
	Counts       map[string]float64 `json:"counts"`

	setupS float64 // set by the parent
}

// span runs f with the profile label span=name, so CPU samples taken
// inside it can be told apart from the benchmark's other calls.
func span(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { f() })
}

// runChild runs workload w once in this process, checks its output, and
// prints a childResult. Profiles and the metrics snapshot go to outDir.
func runChild(w *workload, seed uint64, shards int, mode, outDir string) error {
	if mode == modeProfile {
		runtime.MemProfileRate = 64 << 10
	}
	res := childResult{Mode: mode, Shards: shards, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var collector *obs.Collector
	var cpuFile *os.File
	var heapPeak *heapSampler
	var err error
	span("setup", func() {
		if mode == modeProfile || mode == modeObserve {
			if cpuFile, err = os.Create(filepath.Join(outDir, "cpu.pb.gz")); err != nil {
				return
			}
			if err = pprof.StartCPUProfile(cpuFile); err != nil {
				return
			}
		}
		if mode == modeProfile {
			heapPeak = startHeapSampler()
		}
		if mode == modeObserve {
			collector = obs.NewCollector()
			experiments.SetCollector(collector)
		}
		err = w.scale.apply(shards, shards)
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}

	res.SetupDoneUnixNano = time.Now().UnixNano()
	if mode == modeSetup {
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	if mode == modePlain {
		res.RefS = timeReference()
		// Start the measured call from a fresh heap and peak RSS, as if the
		// reference had not run.
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return fmt.Errorf("resetting peak RSS: %w", err)
		}
	}

	ids := w.ids()
	tabs := tables{}
	r := &reader{}
	gcBefore, mallocsBefore := runtimeStats()
	start := time.Now()
	res.ArtifactS = map[string]float64{}
	span("run", func() {
		for _, id := range ids {
			begin := time.Now()
			t, err := experiments.Run(id, seed)
			res.ArtifactS[id] = time.Since(begin).Seconds()
			if err != nil {
				r.fail("%s: %v", id, err)
				continue
			}
			tabs[id] = t
		}
	})
	res.WallS = time.Since(start).Seconds()
	if heapPeak != nil {
		res.HeapPeakMiB = heapPeak.stop() / (1 << 20)
	}
	if res.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		r.fail("peak RSS: %v", err)
	}
	gcAfter, mallocsAfter := runtimeStats()
	res.GCCPUShare = ratio(gcAfter.gc-gcBefore.gc, gcAfter.busy-gcBefore.busy)
	res.Mallocs = mallocsAfter - mallocsBefore
	if mode == modePlain {
		res.RefS = (res.RefS + timeReference()) / 2
	}

	span("check", func() {
		res.TablesSHA256, res.Counts = checkTables(r, w, tabs, ids, res.ArtifactS)
		if len(r.errs) == 0 {
			res.Outcomes = w.outcomes(r, tabs, w.scale, seed)
		}
	})
	if collector != nil {
		span("export", func() { err = exportMetrics(collector, outDir, res.Counts) })
		if err != nil {
			return fmt.Errorf("export: %w", err)
		}
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return err
		}
	}
	if mode == modeProfile {
		if err := writeHeapProfile(filepath.Join(outDir, "heap.pb.gz")); err != nil {
			return err
		}
	}
	res.Errors = r.errs
	return json.NewEncoder(os.Stdout).Encode(res)
}

// checkTables runs every table's checks, sums the counts the tables
// report, and hashes the rendered tables in run order. It also sums the
// wall time of the tables that count simulated events, as
// "sim.events_wall_s", for sim.ns_per_event.
func checkTables(r *reader, w *workload, tabs tables, ids []string, artifactS map[string]float64) (string, map[string]float64) {
	h := sha256.New()
	counts := map[string]float64{}
	for _, id := range ids {
		t := tabs[id]
		if t == nil {
			continue
		}
		h.Write([]byte(t.String()))
		f := facts(r, t, w.scale)
		for k, v := range f {
			counts[k] += v
		}
		if _, ok := f["sim.events"]; ok {
			counts["sim.events_wall_s"] += artifactS[id]
		}
	}
	return hex.EncodeToString(h.Sum(nil)), counts
}

// exportMetrics writes the collector's metrics snapshot and adds its
// counters to counts under their per-layer names.
func exportMetrics(c *obs.Collector, outDir string, counts map[string]float64) error {
	scopes := c.Scopes()
	f, err := os.Create(filepath.Join(outDir, "metrics.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteMetricsJSON(f, scopes); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sum := map[string]float64{}
	for _, s := range scopes {
		for _, v := range s.Obs.Stats().Snapshot().Counters {
			sum[v.Name] += v.Value
		}
	}
	for _, name := range []string{
		"faas.invocations", "faas.cold_starts", "faas.killed", "faas.reclaimed", "faas.gb_seconds",
		"scheduler.decisions", "scheduler.restarts",
		"trainer.epochs", "trainer.sync_s", "trainer.restart_residual_s",
	} {
		counts[name] += sum[name]
	}
	counts["faas.warm_hit_ratio"] = ratio(sum["faas.warm_starts"], sum["faas.warm_starts"]+sum["faas.cold_starts"])
	counts["storage.puts"] += sum["store.puts"]
	counts["storage.gets"] += sum["store.gets"]
	counts["scheduler.select_ratio"] = ratio(sum["scheduler.path.select"], sum["scheduler.decisions"])
	return nil
}

func writeHeapProfile(path string) error {
	runtime.GC() // the allocation profile is only complete after a cycle
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuSeconds are the process's cumulative GC and busy (non-idle) CPU time.
type cpuSeconds struct{ gc, busy float64 }

// runtimeStats returns the process's CPU time so far and the number of
// heap objects it has allocated.
func runtimeStats() (cpuSeconds, float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return cpuSeconds{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()},
		float64(s[3].Value.Uint64())
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes by
// polling runtime/metrics; only profile runs start one.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it, and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return float64(h.peak)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
