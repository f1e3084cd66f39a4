package main

import "strings"

// packageLayer maps every package of the repro module to exactly one
// layer. TestEveryPackageHasALayer fails when a package is added without
// an entry here. The live-mode substrate and the linter are not exercised
// by any workload; they and the small shared packages go to other.
var packageLayer = map[string]string{
	"repro/internal/sim":         "sim",
	"repro/internal/traffic":     "traffic",
	"repro/internal/faas":        "faas",
	"repro/internal/storage":     "storage",
	"repro/internal/fault":       "fault",
	"repro/internal/fit":         "fit",
	"repro/internal/predictor":   "predictor",
	"repro/internal/cost":        "cost",
	"repro/internal/scheduler":   "scheduler",
	"repro/internal/planner":     "planner",
	"repro/internal/sha":         "sha",
	"repro/internal/ml":          "ml",
	"repro/internal/dataset":     "dataset",
	"repro/internal/workload":    "workload",
	"repro/internal/trainer":     "trainer",
	"repro/internal/core":        "core",
	"repro/internal/obs":         "obs",
	"repro/internal/experiments": "experiments",

	"repro":                               "other",
	"repro/cescaling":                     "other",
	"repro/cmd/cebench":                   "other",
	"repro/cmd/cescale":                   "other",
	"repro/cmd/cescalint":                 "other",
	"repro/examples/distributed":          "other",
	"repro/examples/hyperparam":           "other",
	"repro/examples/qos-training":         "other",
	"repro/examples/quickstart":           "other",
	"repro/examples/serverless-workers":   "other",
	"repro/examples/storage-explorer":     "other",
	"repro/examples/workflow":             "other",
	"repro/internal/baselines":            "other",
	"repro/internal/cluster":              "other",
	"repro/internal/pricing":              "other",
	"repro/internal/platform":             "other",
	"repro/internal/platform/simbackend":  "other",
	"repro/internal/platform/livebackend": "other",
	"repro/internal/psnet":                "other",
	"repro/internal/lambda":               "other",
	"repro/internal/objstore":             "other",
	"repro/internal/distml":               "other",
	"repro/internal/lint":                 "other",
}

// funcPackage returns the import path of a symbol name as profiles print
// it: "repro/internal/sim.(*Shard).siftDown" → "repro/internal/sim".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer returns the layer of a frame from a repository package, and
// false for any other frame (standard library, runtime). The benchmark's
// own package main counts as other.
func frameLayer(fn string) (string, bool) {
	pkg := funcPackage(fn)
	if pkg == "main" {
		return "other", true
	}
	if l, ok := packageLayer[pkg]; ok {
		return l, true
	}
	if pkg == "repro" || strings.HasPrefix(pkg, "repro/") {
		return "other", true
	}
	return "", false
}

// sampleLayer attributes a sample to the innermost frame from a repository
// package: math.Log under sim.(*Rand).Exp counts as sim, and fmt.Errorf
// under faas.(*Platform).InvokeGroup as faas. A sample with no repository
// frame, such as a GC worker's, counts as runtime.
func sampleLayer(p *profile, s *sample) string {
	for _, id := range s.locs {
		for _, fn := range p.locations[id] {
			if l, ok := frameLayer(fn); ok {
				return l
			}
		}
	}
	return "runtime"
}
