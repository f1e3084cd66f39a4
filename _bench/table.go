package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// reader reads typed values out of experiments tables by column name and
// row label, and key=value pairs out of their notes. A missing or
// duplicated column, row or key, or a cell that is not a number, is
// recorded as an error and read as 0; callers report r.errs once, so a
// renamed header fails the run loudly instead of turning into a silent 0.
// Failed output checks are recorded the same way.
type reader struct {
	errs []string
}

func (r *reader) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// col returns the index of the column named name, or -1.
func (r *reader) col(t *experiments.Table, name string) int {
	at := -1
	for i, h := range t.Headers {
		if h != name {
			continue
		}
		if at >= 0 {
			r.fail("%s: column %q appears twice", t.ID, name)
			return -1
		}
		at = i
	}
	if at < 0 {
		r.fail("%s: no column %q (headers %q)", t.ID, name, t.Headers)
	}
	return at
}

// row returns the one row whose first cell is label, or nil.
func (r *reader) row(t *experiments.Table, label string) []string {
	var found []string
	for _, row := range t.Rows {
		if len(row) == 0 || row[0] != label {
			continue
		}
		if found != nil {
			r.fail("%s: row %q appears twice", t.ID, label)
			return nil
		}
		found = row
	}
	if found == nil {
		r.fail("%s: no row %q", t.ID, label)
	}
	return found
}

// cell returns row's cell in the column named name; ok is false (and an
// error is recorded) when there is none.
func (r *reader) cell(t *experiments.Table, row []string, name string) (string, bool) {
	i := r.col(t, name)
	if i < 0 || row == nil {
		return "", false
	}
	if i >= len(row) {
		r.fail("%s: row %q has no cell for column %q", t.ID, row[0], name)
		return "", false
	}
	return row[i], true
}

// num parses row's cell in column name as a number; a leading "$" and a
// trailing "%" are accepted, so "$24.12" reads 24.12 and "42.3%" 42.3.
func (r *reader) num(t *experiments.Table, row []string, name string) float64 {
	s, ok := r.cell(t, row, name)
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(s, "$"), "%"), 64)
	if err != nil {
		r.fail("%s: row %q column %q: %q is not a number", t.ID, row[0], name, s)
		return 0
	}
	return v
}

// at is num on the row labelled label.
func (r *reader) at(t *experiments.Table, label, name string) float64 {
	row := r.row(t, label)
	if row == nil {
		return 0
	}
	return r.num(t, row, name)
}

// note returns the number after "key=" in t's notes. Notes are split into
// words at spaces, commas, semicolons and parentheses; the key must occur
// exactly once and its value must be a plain number.
func (r *reader) note(t *experiments.Table, key string) float64 {
	var vals []string
	for _, word := range strings.FieldsFunc(t.Notes, func(c rune) bool {
		return c == ' ' || c == ',' || c == ';' || c == '(' || c == ')'
	}) {
		if k, v, ok := strings.Cut(word, "="); ok && k == key {
			vals = append(vals, v)
		}
	}
	switch len(vals) {
	case 0:
		r.fail("%s: notes have no %s= (notes %q)", t.ID, key, t.Notes)
		return 0
	case 1:
	default:
		r.fail("%s: notes have %s= %d times", t.ID, key, len(vals))
		return 0
	}
	v, err := strconv.ParseFloat(vals[0], 64)
	if err != nil {
		r.fail("%s: notes %s=%q is not a number", t.ID, key, vals[0])
		return 0
	}
	return v
}

// classRows returns every row except TOTAL.
func classRows(t *experiments.Table) [][]string {
	var rows [][]string
	for _, row := range t.Rows {
		if len(row) > 0 && row[0] != "TOTAL" {
			rows = append(rows, row)
		}
	}
	return rows
}
