package main

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// small is a scale at which the three macro scenarios run in well under a
// second each.
var small = scale{
	TrafficTenants: 6, TrafficRate: 0.5, TrafficHorizon: 900,
	FleetTenants: 12, ChaosTenants: 8, ChaosPerTenant: 200,
}

// smallTable runs one macro scenario at the small scale.
func smallTable(t *testing.T, id string) *experiments.Table {
	t.Helper()
	if err := small.apply(1, 1); err != nil {
		t.Fatal(err)
	}
	tab, err := experiments.Run(id, 2023)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tab
}

// doctor returns a deep copy of tab with edit applied.
func doctor(tab *experiments.Table, edit func(*experiments.Table)) *experiments.Table {
	c := *tab
	c.Headers = append([]string(nil), tab.Headers...)
	c.Rows = nil
	for _, row := range tab.Rows {
		c.Rows = append(c.Rows, append([]string(nil), row...))
	}
	edit(&c)
	return &c
}

// bump adds delta to the integer cell at (label, column).
func bump(t *testing.T, tab *experiments.Table, label, column string, delta int) {
	t.Helper()
	col := -1
	for i, h := range tab.Headers {
		if h == column {
			col = i
		}
	}
	for _, row := range tab.Rows {
		if row[0] == label && col >= 0 {
			v, err := strconv.Atoi(row[col])
			if err != nil {
				t.Fatalf("%s %s %s: %v", tab.ID, label, column, err)
			}
			row[col] = strconv.Itoa(v + delta)
			return
		}
	}
	t.Fatalf("%s: no cell %s/%s", tab.ID, label, column)
}

func checkErrs(tab *experiments.Table) []string {
	r := &reader{}
	facts(r, tab, small)
	return r.errs
}

func wantFailure(t *testing.T, name string, tab *experiments.Table, substr string) {
	t.Helper()
	errs := checkErrs(tab)
	if len(errs) == 0 {
		t.Fatalf("%s: the check accepted a doctored table", name)
	}
	if !strings.Contains(strings.Join(errs, "\n"), substr) {
		t.Fatalf("%s: errors %q do not mention %q", name, errs, substr)
	}
}

func TestCheckAcceptsRealTables(t *testing.T) {
	for _, id := range []string{"macro-trace", "macro-chaos", "macro-fleet"} {
		if errs := checkErrs(smallTable(t, id)); len(errs) > 0 {
			t.Errorf("%s: %q", id, errs)
		}
	}
}

func TestCheckRejectsDoctoredTraceTable(t *testing.T) {
	tab := smallTable(t, "macro-trace")
	class := tab.Rows[0][0]
	wantFailure(t, "class completed+1", doctor(tab, func(d *experiments.Table) {
		bump(t, d, class, "completed", 1)
	}), "arrivals")
	wantFailure(t, "TOTAL completed-1", doctor(tab, func(d *experiments.Table) {
		bump(t, d, "TOTAL", "completed", -1)
	}), "TOTAL")
	wantFailure(t, "class and TOTAL arrivals+1", doctor(tab, func(d *experiments.Table) {
		bump(t, d, class, "arrivals", 1)
		bump(t, d, class, "completed", 1)
	}), "class arrivals add up")
	wantFailure(t, "denials off by one", doctor(tab, func(d *experiments.Table) {
		d.Notes = strings.Replace(d.Notes, "denials=", "denials=1", 1)
	}), "denials")
}

func TestCheckRejectsDoctoredChaosTable(t *testing.T) {
	tab := smallTable(t, "macro-chaos")
	wantFailure(t, "TOTAL shed+1", doctor(tab, func(d *experiments.Table) {
		bump(t, d, "TOTAL", "shed", 1)
	}), "completed + shed + dropped")
	wantFailure(t, "profile dropped-1", doctor(tab, func(d *experiments.Table) {
		bump(t, d, d.Rows[1][0], "dropped", -1)
	}), "completed + shed + dropped")
}

func TestCheckRejectsDoctoredFleetTable(t *testing.T) {
	tab := smallTable(t, "macro-fleet")
	wantFailure(t, "class decisions+1", doctor(tab, func(d *experiments.Table) {
		bump(t, d, d.Rows[0][0], "decisions", 1)
	}), "decisions")
	wantFailure(t, "class tenants+1", doctor(tab, func(d *experiments.Table) {
		bump(t, d, d.Rows[2][0], "tenants", 1)
	}), "class tenants")
	wantFailure(t, "converged > tenants", doctor(tab, func(d *experiments.Table) {
		bump(t, d, d.Rows[1][0], "converged", 100)
	}), "converged")
}

func TestCheckRejectsEmptyTable(t *testing.T) {
	wantFailure(t, "empty", &experiments.Table{ID: "fig9", Headers: []string{"model"}}, "empty")
}

func TestRenamedHeaderFailsLoudly(t *testing.T) {
	tab := smallTable(t, "macro-trace")
	renamed := doctor(tab, func(d *experiments.Table) {
		for i, h := range d.Headers {
			if h == "completed" {
				d.Headers[i] = "done"
			}
		}
	})
	wantFailure(t, "renamed header", renamed, `no column "completed"`)

	r := &reader{}
	if v := r.at(renamed, "TOTAL", "completed"); v != 0 || len(r.errs) != 1 {
		t.Fatalf("reading a renamed column gave %v with errors %q; want one error", v, r.errs)
	}
}

func TestMissingNoteKeyFailsLoudly(t *testing.T) {
	tab := smallTable(t, "macro-trace")
	renamed := doctor(tab, func(d *experiments.Table) {
		d.Notes = strings.Replace(d.Notes, "invocations=", "calls=", 1)
	})
	wantFailure(t, "renamed note key", renamed, "no invocations=")
}

func TestReaderParsesCells(t *testing.T) {
	tab := &experiments.Table{
		ID:      "t",
		Headers: []string{"name", "cost", "gain", "n", "dup", "dup"},
		Rows:    [][]string{{"a", "$24.12", "42.3%", "7", "1", "2"}, {"b", "1.5m", "x", "8", "", ""}},
		Notes:   "cap 3 (denials=4 retries=5); jain mean=0.75 min=0.5; x=1 x=2",
	}
	r := &reader{}
	if got := r.at(tab, "a", "cost") + r.at(tab, "a", "gain") + r.at(tab, "a", "n"); got != 24.12+42.3+7 {
		t.Errorf("sum of a's cells = %v", got)
	}
	if got := r.note(tab, "denials") + r.note(tab, "retries") + r.note(tab, "mean"); got != 4+5+0.75 {
		t.Errorf("sum of notes = %v", got)
	}
	if len(r.errs) != 0 {
		t.Fatalf("unexpected errors %q", r.errs)
	}
	for name, read := range map[string]func(){
		"non-number cell": func() { r.at(tab, "b", "cost") },
		"missing row":     func() { r.at(tab, "c", "n") },
		"duplicate col":   func() { r.at(tab, "a", "dup") },
		"duplicate key":   func() { r.note(tab, "x") },
		"missing key":     func() { r.note(tab, "events") },
	} {
		r.errs = nil
		read()
		if len(r.errs) != 1 {
			t.Errorf("%s: errors %q, want one", name, r.errs)
		}
	}
}
