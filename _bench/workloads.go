package main

import (
	"fmt"

	"repro/internal/experiments"
)

// scale holds every knob a workload sets through the experiments setters.
// The JSON form is the scale recorded in each result's provenance.
type scale struct {
	TrafficTenants int     `json:"traffic_tenants,omitempty"`
	TrafficRate    float64 `json:"traffic_rate_per_s,omitempty"`
	TrafficHorizon float64 `json:"traffic_horizon_s,omitempty"`
	FleetTenants   int     `json:"fleet_tenants,omitempty"`
	ChaosTenants   int     `json:"chaos_tenants,omitempty"`
	ChaosPerTenant int     `json:"chaos_per_tenant,omitempty"`
	MacroTenants   int     `json:"macro_tenants,omitempty"`
	MacroPerTenant int     `json:"macro_per_tenant,omitempty"`
	// ModelErrSeeds is how many seeds model_err_max_pct averages over.
	ModelErrSeeds int `json:"model_err_seeds,omitempty"`
}

// apply configures the experiments package for one run: the experiment
// pool at 1, the kernel at shards × workers, and every scale knob (zero
// restores a scenario's default, which the workload does not run).
func (s scale) apply(shards, workers int) error {
	experiments.SetParallelism(1)
	experiments.SetMacroSharding(shards, workers)
	experiments.SetTrafficScale(s.TrafficTenants, s.TrafficRate, s.TrafficHorizon)
	if err := experiments.SetTrafficKind("diurnal"); err != nil {
		return fmt.Errorf("traffic kind: %w", err)
	}
	experiments.SetFleetScale(s.FleetTenants)
	experiments.SetChaosScale(s.ChaosTenants, s.ChaosPerTenant)
	experiments.SetMacroScale(s.MacroTenants, s.MacroPerTenant)
	return nil
}

type tables map[string]*experiments.Table

// workload is one set of artifacts the benchmark runs at a fixed scale.
type workload struct {
	name  string
	scale scale
	ids   func() []string
	// sharded workloads are also run once at shards=2, sim-workers=2 and
	// must render the same bytes.
	sharded bool
	// rates maps a host-rate metric to the count it divides by wall time.
	rates map[string]string
	// outcomes reads the workload's simulated end-to-end metrics.
	outcomes func(r *reader, tabs tables, s scale, seed uint64) map[string]float64
}

func only(id string) func() []string { return func() []string { return []string{id} } }

var workloads = []*workload{
	{
		name:    "trace-diurnal",
		scale:   scale{TrafficTenants: 64, TrafficRate: 0.5, TrafficHorizon: 21600},
		ids:     only("macro-trace"),
		sharded: true,
		rates:   map[string]string{"events_per_s": "sim.events"},
		outcomes: func(r *reader, tabs tables, _ scale, _ uint64) map[string]float64 {
			t := tabs["macro-trace"]
			return map[string]float64{
				"sim_served_frac":   ratio(r.at(t, "TOTAL", "completed"), r.at(t, "TOTAL", "arrivals")),
				"sim_p95_latency_s": r.at(t, "TOTAL", "p95s"),
				"sim_cost_usd":      r.at(t, "TOTAL", "cost$"),
				"sim_jain_mean":     r.note(t, "mean"),
			}
		},
	},
	{
		name:  "fleet-control",
		scale: scale{FleetTenants: 4000},
		ids:   only("macro-fleet"),
		rates: map[string]string{"events_per_s": "sim.events", "decisions_per_s": "decisions"},
		outcomes: func(r *reader, tabs tables, _ scale, _ uint64) map[string]float64 {
			t := tabs["macro-fleet"]
			n := r.at(t, "TOTAL", "tenants")
			return map[string]float64{
				"sim_served_frac":         ratio(n-r.at(t, "TOTAL", "dropped"), n),
				"sim_cost_usd":            r.at(t, "TOTAL", "modeled$"),
				"sim_converged_frac":      ratio(r.at(t, "TOTAL", "converged"), n),
				"sim_constraint_met_frac": ratio(r.at(t, "TOTAL", "budget-met")+r.at(t, "TOTAL", "qos-met"), n),
			}
		},
	},
	{
		name:    "chaos-faults",
		scale:   scale{ChaosTenants: 64, ChaosPerTenant: 15625},
		ids:     only("macro-chaos"),
		sharded: true,
		rates:   map[string]string{"events_per_s": "sim.events"},
		outcomes: func(r *reader, tabs tables, s scale, _ uint64) map[string]float64 {
			t := tabs["macro-chaos"]
			return map[string]float64{
				"sim_served_frac": ratio(r.at(t, "TOTAL", "completed"), float64(s.ChaosTenants*s.ChaosPerTenant)),
				"sim_cost_usd":    r.at(t, "TOTAL", "cost$"),
			}
		},
	},
	{
		name: "paper-all",
		// The registered defaults of the macro scenarios, set explicitly so
		// the checks know them and the provenance records them.
		scale: scale{
			TrafficTenants: 24, TrafficRate: 0.5, TrafficHorizon: 1800,
			FleetTenants: 48, ChaosTenants: 24, ChaosPerTenant: 1000,
			MacroTenants: 32, MacroPerTenant: 1500, ModelErrSeeds: 128,
		},
		ids:      experiments.IDs,
		outcomes: paperOutcomes,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %q)", name, names)
}

// paperOutcomes reads the paper's headline outcomes: CE-scaling's mean
// JCT and cost gains over LambdaML (Fig. 9/10), and the analytic model's
// worst error against the simulated actuals (Fig. 19/20). The worst error
// over one seed's ten rows swings by a third from seed to seed, so it is
// averaged over s.ModelErrSeeds seeds: the run's own and seeds hashed from
// it (neighbouring seeds give correlated errors). Those extra fig19/fig20
// runs are not part of the measured time.
func paperOutcomes(r *reader, tabs tables, s scale, seed uint64) map[string]float64 {
	errSum := modelErr(r, tabs["fig19"], tabs["fig20"])
	for k := 1; k < s.ModelErrSeeds; k++ {
		derived := splitmix64(seed*uint64(s.ModelErrSeeds) + uint64(k))
		f19, err19 := experiments.Run("fig19", derived)
		f20, err20 := experiments.Run("fig20", derived)
		if err19 != nil || err20 != nil {
			r.fail("model error at seed %d: fig19: %v, fig20: %v", derived, err19, err20)
			continue
		}
		errSum += modelErr(r, f19, f20)
	}
	return map[string]float64{
		"model_err_max_pct": errSum / float64(s.ModelErrSeeds),
		"ce_jct_gain_pct":   ceGain(r, tabs["fig9"], "JCT vs LambdaML"),
		"ce_cost_gain_pct":  ceGain(r, tabs["fig10"], "cost vs LambdaML"),
	}
}

// splitmix64 is the SplitMix64 output function, a bijective mix of x.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// modelErr is the largest JCT or cost error over the rows of fig19 and fig20.
func modelErr(r *reader, figs ...*experiments.Table) float64 {
	worst := 0.0
	for _, t := range figs {
		for _, row := range t.Rows {
			worst = max(worst, r.num(t, row, "JCT err"), r.num(t, row, "cost err"))
		}
	}
	return worst
}

// ceGain is the mean of column over t's CE-scaling rows.
func ceGain(r *reader, t *experiments.Table, column string) float64 {
	sum, n := 0.0, 0
	for _, row := range t.Rows {
		if sys, ok := r.cell(t, row, "system"); ok && sys == "CE-scaling" {
			sum += r.num(t, row, column)
			n++
		}
	}
	if n == 0 {
		r.fail("%s: no CE-scaling rows", t.ID)
		return 0
	}
	return sum / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// facts checks one table's invariants and returns the counts it reports,
// keyed by per-layer metric name ("decisions" feeds decisions_per_s). Every
// table must have rows; the macro scenarios' tables also conserve their
// arrivals and tenants exactly.
func facts(r *reader, t *experiments.Table, s scale) map[string]float64 {
	if len(t.Rows) == 0 {
		r.fail("%s: empty table", t.ID)
		return nil
	}
	switch t.ID {
	case "macro-trace":
		return traceFacts(r, t)
	case "macro-chaos":
		return chaosFacts(r, t, s)
	case "macro-fleet":
		return fleetFacts(r, t, s)
	case "macro-day":
		return map[string]float64{"sim.events": r.note(t, "events")}
	}
	return nil
}

// traceFacts: every class row and TOTAL conserves arrivals == completed +
// dropped, the classes add up to TOTAL, TOTAL arrivals is the notes'
// invocations= and every drop is one of the notes' denials=.
func traceFacts(r *reader, t *experiments.Table) map[string]float64 {
	for _, row := range t.Rows {
		a, c, d := r.num(t, row, "arrivals"), r.num(t, row, "completed"), r.num(t, row, "dropped")
		if a != c+d {
			r.fail("%s %s: arrivals %.0f != completed %.0f + dropped %.0f", t.ID, row[0], a, c, d)
		}
	}
	sum := 0.0
	for _, row := range classRows(t) {
		sum += r.num(t, row, "arrivals")
	}
	arrivals := r.at(t, "TOTAL", "arrivals")
	if sum != arrivals {
		r.fail("%s: class arrivals add up to %.0f, TOTAL says %.0f", t.ID, sum, arrivals)
	}
	if inv := r.note(t, "invocations"); inv != arrivals {
		r.fail("%s: TOTAL arrivals %.0f != notes invocations=%.0f", t.ID, arrivals, inv)
	}
	denials := r.note(t, "denials")
	if dropped := r.at(t, "TOTAL", "dropped"); denials != dropped {
		r.fail("%s: notes denials=%.0f != TOTAL dropped %.0f", t.ID, denials, dropped)
	}
	retries := r.note(t, "retries")
	return map[string]float64{
		"sim.events":       r.note(t, "events"),
		"traffic.arrivals": arrivals,
		"faas.denials":     retries + denials, // each refusal is retried or, at last, dropped
		"faas.retries":     retries,
	}
}

// chaosFacts: every profile row and TOTAL accounts for each arrival once,
// completed + shed + dropped == tenants × per-tenant arrivals, and TOTAL
// holds every configured tenant.
func chaosFacts(r *reader, t *experiments.Table, s scale) map[string]float64 {
	for _, row := range t.Rows {
		want := r.num(t, row, "tenants") * float64(s.ChaosPerTenant)
		got := r.num(t, row, "completed") + r.num(t, row, "shed") + r.num(t, row, "dropped")
		if got != want {
			r.fail("%s %s: completed + shed + dropped = %.0f, want tenants x %d = %.0f", t.ID, row[0], got, s.ChaosPerTenant, want)
		}
	}
	if n := r.at(t, "TOTAL", "tenants"); n != float64(s.ChaosTenants) {
		r.fail("%s: TOTAL tenants %.0f, want %d", t.ID, n, s.ChaosTenants)
	}
	retried := r.at(t, "TOTAL", "retried")
	return map[string]float64{
		"sim.events":            r.note(t, "events"),
		"faas.denials":          retried + r.at(t, "TOTAL", "dropped"), // each refusal is retried or, at last, dropped
		"faas.retries":          retried,
		"storage.puts":          r.note(t, "puts"),
		"storage.ckpt_retries":  r.at(t, "TOTAL", "ckpt_retry"),
		"storage.ckpt_drops":    r.at(t, "TOTAL", "ckpt_drop"),
		"fault.events_compiled": r.note(t, "compiled"),
	}
}

// fleetFacts: the class rows hold every configured tenant, their decisions
// add up to the notes' decisions=, and no row converges more tenants than
// it has.
func fleetFacts(r *reader, t *experiments.Table, s scale) map[string]float64 {
	tenants, decisions := 0.0, 0.0
	for _, row := range classRows(t) {
		tenants += r.num(t, row, "tenants")
		decisions += r.num(t, row, "decisions")
	}
	if tenants != float64(s.FleetTenants) {
		r.fail("%s: class tenants add up to %.0f, want %d", t.ID, tenants, s.FleetTenants)
	}
	noted := r.note(t, "decisions")
	if decisions != noted {
		r.fail("%s: class decisions add up to %.0f, notes say decisions=%.0f", t.ID, decisions, noted)
	}
	for _, row := range t.Rows {
		if c, n := r.num(t, row, "converged"), r.num(t, row, "tenants"); c > n {
			r.fail("%s %s: converged %.0f > tenants %.0f", t.ID, row[0], c, n)
		}
	}
	return map[string]float64{
		"sim.events":   r.note(t, "events"),
		"faas.denials": r.note(t, "denials"), // counts every refusal, retried or not
		"decisions":    noted,
	}
}
