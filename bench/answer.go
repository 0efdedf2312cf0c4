package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	paradise "paradise"
)

// cell is one result value in the harness's own representation, so answers
// from the oracle, from Session.Query and from the HTTP body compare in
// one place.
type cell struct {
	kind byte // 'i' int, 'f' float, 's' string, 'n' null
	i    int64
	f    float64
	s    string
}

func intCell(i int64) cell     { return cell{kind: 'i', i: i} }
func floatCell(f float64) cell { return cell{kind: 'f', f: f} }
func strCell(s string) cell    { return cell{kind: 's', s: s} }

func (c cell) num() (float64, bool) {
	switch c.kind {
	case 'i':
		return float64(c.i), true
	case 'f':
		return c.f, true
	}
	return 0, false
}

func (c cell) String() string {
	switch c.kind {
	case 'i':
		return fmt.Sprint(c.i)
	case 'f':
		return fmt.Sprint(c.f)
	case 's':
		return fmt.Sprintf("%q", c.s)
	}
	return "null"
}

// aggTolerance is how far an aggregate may differ from the oracle's,
// relative to its magnitude: the two sum in different orders.
const aggTolerance = 1e-9

// cellsEqual compares two cells; numbers compare numerically within tol
// (relative to magnitude, absolute below 1).
func cellsEqual(a, b cell, tol float64) bool {
	af, an := a.num()
	bf, bn := b.num()
	if an && bn {
		if a.kind == 'i' && b.kind == 'i' {
			return a.i == b.i
		}
		return math.Abs(af-bf) <= tol*math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
	}
	return a.kind == b.kind && a.s == b.s
}

// compareCells orders cells exactly (numbers before strings before nulls).
func compareCells(a, b cell) int {
	af, an := a.num()
	bf, bn := b.num()
	switch {
	case an && bn:
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	return strings.Compare(a.s, b.s)
}

// answer is a result set: column names and rows of cells.
type answer struct {
	cols []string
	rows [][]cell
}

// sortedBy returns the rows ordered by the key columns (all columns when
// key is nil), without modifying the answer.
func (a *answer) sortedBy(key []int) [][]cell {
	rows := append([][]cell(nil), a.rows...)
	sort.SliceStable(rows, func(x, y int) bool {
		if key == nil {
			for c := range rows[x] {
				if d := compareCells(rows[x][c], rows[y][c]); d != 0 {
					return d < 0
				}
			}
			return false
		}
		for _, c := range key {
			if d := compareCells(rows[x][c], rows[y][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return rows
}

func sameCols(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("columns %v, want %v", got, want)
	}
	for i := range want {
		if !strings.EqualFold(want[i], got[i]) {
			return fmt.Errorf("columns %v, want %v", got, want)
		}
	}
	return nil
}

// matchUnordered checks got against the oracle's answer as a multiset:
// both are ordered by the key columns (every column when key is nil) and
// compared cell by cell, numbers within aggTolerance.
func matchUnordered(want, got *answer, key []int) error {
	if err := sameCols(want.cols, got.cols); err != nil {
		return err
	}
	if len(want.rows) != len(got.rows) {
		return fmt.Errorf("%d rows, want %d", len(got.rows), len(want.rows))
	}
	w, g := want.sortedBy(key), got.sortedBy(key)
	for i := range w {
		for c := range w[i] {
			if !cellsEqual(w[i][c], g[i][c], aggTolerance) {
				return fmt.Errorf("row %d column %s: got %v, want %v", i, want.cols[c], g[i][c], w[i][c])
			}
		}
	}
	return nil
}

// matchExact checks that two answers are the same rows in the same order
// with identical values: the HTTP body against Session.Query.
func matchExact(a, b *answer) error {
	if err := sameCols(a.cols, b.cols); err != nil {
		return err
	}
	if len(a.rows) != len(b.rows) {
		return fmt.Errorf("%d rows against %d", len(b.rows), len(a.rows))
	}
	for i := range a.rows {
		for c := range a.rows[i] {
			if !cellsEqual(a.rows[i][c], b.rows[i][c], 0) {
				return fmt.Errorf("row %d column %s: %v against %v", i, a.cols[c], b.rows[i][c], a.rows[i][c])
			}
		}
	}
	return nil
}

func valueCell(v paradise.Value) cell {
	switch v.Type() {
	case paradise.TypeInt:
		return intCell(v.AsInt())
	case paradise.TypeFloat:
		return floatCell(v.AsFloat())
	case paradise.TypeString:
		return strCell(v.AsString())
	case paradise.TypeBool:
		if v.AsBool() {
			return intCell(1)
		}
		return intCell(0)
	}
	return cell{kind: 'n'}
}

// cursorAnswer drains a cursor into an answer and closes it.
func cursorAnswer(cur *paradise.Cursor) (*answer, error) {
	a := &answer{}
	for _, c := range cur.Schema().Columns {
		a.cols = append(a.cols, c.Name)
	}
	for cur.Next() {
		row := cur.Row()
		cells := make([]cell, len(row))
		for i, v := range row {
			cells[i] = valueCell(v)
		}
		a.rows = append(a.rows, cells)
	}
	if err := cur.Close(); err != nil {
		return nil, err
	}
	return a, nil
}
