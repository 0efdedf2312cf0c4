package plan_test

import (
	"strings"
	"testing"

	"paradise/internal/plan"
	"paradise/internal/sqlparser"
)

func mustParse(t *testing.T, sql string) *sqlparser.Select {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

func mustLower(t *testing.T, sql string) plan.Node {
	t.Helper()
	root, err := plan.FromAST(mustParse(t, sql))
	if err != nil {
		t.Fatalf("lower %q: %v", sql, err)
	}
	return root
}

// testCatalog is the schema of the bench tables used across the engine.
func testCatalog() plan.Catalog {
	tables := map[string][]string{
		"d":     {"x", "y", "z", "t", "cell"},
		"cells": {"cell", "label"},
	}
	return func(name string) ([]string, bool) {
		cols, ok := tables[name]
		return cols, ok
	}
}

// TestRoundTrip: lowering then rendering reproduces the canonical SQL, so
// fragments built from plan subtrees keep an exact SQL surface.
func TestRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT x, y FROM d",
		"SELECT * FROM d WHERE x > 5 AND z < 2",
		"SELECT x, AVG(z) AS za FROM d WHERE t > 0 GROUP BY x HAVING COUNT(*) > 3 ORDER BY za DESC LIMIT 10",
		"SELECT DISTINCT cell FROM d ORDER BY cell",
		"SELECT d.x, cells.label FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 1",
		"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 1.5) WHERE s > 3",
		"SELECT SUM(z) OVER (PARTITION BY cell ORDER BY t) FROM d",
		"SELECT a.x FROM d AS a LEFT JOIN cells ON a.cell = cells.cell",
	}
	for _, q := range queries {
		sel := mustParse(t, q)
		root, err := plan.FromAST(sel)
		if err != nil {
			t.Fatalf("lower %q: %v", q, err)
		}
		back, err := plan.ToSelect(root)
		if err != nil {
			t.Fatalf("render %q: %v", q, err)
		}
		if got, want := back.SQL(), sel.SQL(); got != want {
			t.Errorf("round trip of %q:\n got %q\nwant %q", q, got, want)
		}
	}
}

// TestLoweringShapes: the operator stack mirrors the statement's clauses in
// the canonical order.
func TestLoweringShapes(t *testing.T) {
	root := mustLower(t, "SELECT DISTINCT x, AVG(z) AS za FROM d GROUP BY x ORDER BY x LIMIT 3")
	l, ok := root.(*plan.Limit)
	if !ok {
		t.Fatalf("top = %T, want *plan.Limit", root)
	}
	s, ok := l.Input.(*plan.Sort)
	if !ok {
		t.Fatalf("under limit = %T, want *plan.Sort", l.Input)
	}
	d, ok := s.Input.(*plan.Distinct)
	if !ok {
		t.Fatalf("under sort = %T, want *plan.Distinct", s.Input)
	}
	a, ok := d.Input.(*plan.Aggregate)
	if !ok {
		t.Fatalf("under distinct = %T, want *plan.Aggregate", d.Input)
	}
	if _, ok := a.Input.(*plan.Scan); !ok {
		t.Fatalf("aggregate input = %T, want *plan.Scan", a.Input)
	}

	// Window items become a Window node, not a Project.
	root = mustLower(t, "SELECT SUM(z) OVER (PARTITION BY cell) FROM d")
	if _, ok := root.(*plan.Window); !ok {
		t.Fatalf("window query top = %T, want *plan.Window", root)
	}

	// Aggregate in WHERE is rejected at lowering.
	if _, err := plan.FromAST(mustParse(t, "SELECT x FROM d WHERE AVG(z) > 1")); err == nil {
		t.Fatal("aggregate in WHERE lowered without error")
	}
}

// TestOptimizePushesFilterIntoScan: a WHERE lands in Scan.Predicate.
func TestOptimizePushesFilterIntoScan(t *testing.T) {
	root := plan.Optimize(mustLower(t, "SELECT x FROM d WHERE z < 1 AND t > 2"), plan.Options{})
	p, ok := root.(*plan.Project)
	if !ok {
		t.Fatalf("top = %T, want *plan.Project", root)
	}
	sc, ok := p.Input.(*plan.Scan)
	if !ok {
		t.Fatalf("project input = %T, want *plan.Scan (filter should be merged)", p.Input)
	}
	if sc.Predicate == nil || sc.Predicate.SQL() != "z < 1 AND t > 2" {
		t.Fatalf("scan predicate = %v", sc.Predicate)
	}
}

// TestOptimizeConstantFolding: literal arithmetic folds; a tautological
// filter disappears.
func TestOptimizeConstantFolding(t *testing.T) {
	root := plan.Optimize(mustLower(t, "SELECT x FROM d WHERE x > 1 + 2"), plan.Options{})
	sc := root.(*plan.Project).Input.(*plan.Scan)
	if got := sc.Predicate.SQL(); got != "x > 3" {
		t.Fatalf("folded predicate = %q, want \"x > 3\"", got)
	}

	root = plan.Optimize(mustLower(t, "SELECT x FROM d WHERE 1 < 2"), plan.Options{})
	sc = root.(*plan.Project).Input.(*plan.Scan)
	if sc.Predicate != nil {
		t.Fatalf("tautology should fold away, got %q", sc.Predicate.SQL())
	}

	// Division by zero must NOT fold (the runtime error belongs to execution).
	root = plan.Optimize(mustLower(t, "SELECT x FROM d WHERE x > 1 / 0"), plan.Options{})
	sc = root.(*plan.Project).Input.(*plan.Scan)
	if got := sc.Predicate.SQL(); got != "x > 1 / 0" {
		t.Fatalf("division by zero folded: %q", got)
	}
}

// TestOptimizeJoinPushdown: qualified conjuncts sink to their side; on a
// LEFT JOIN the null-extended side keeps its conjunct above the join.
func TestOptimizeJoinPushdown(t *testing.T) {
	root := plan.Optimize(mustLower(t,
		"SELECT d.x, cells.label FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 1 AND cells.label = 'room'"),
		plan.Options{Catalog: testCatalog()})
	j := root.(*plan.Project).Input.(*plan.Join)
	ls, ok := j.Left.(*plan.Scan)
	if !ok || ls.Predicate == nil || ls.Predicate.SQL() != "d.z < 1" {
		t.Fatalf("left side: %T %v", j.Left, ls)
	}
	rs, ok := j.Right.(*plan.Scan)
	if !ok || rs.Predicate == nil || rs.Predicate.SQL() != "cells.label = 'room'" {
		t.Fatalf("right side: %T", j.Right)
	}

	// LEFT JOIN: the right-side conjunct must stay above the join.
	root = plan.Optimize(mustLower(t,
		"SELECT d.x FROM d LEFT JOIN cells ON d.cell = cells.cell WHERE cells.label = 'room'"),
		plan.Options{Catalog: testCatalog()})
	f, ok := root.(*plan.Project).Input.(*plan.Filter)
	if !ok {
		t.Fatalf("left-join filter pushed below the join: %T", root.(*plan.Project).Input)
	}
	if _, ok := f.Input.(*plan.Join); !ok {
		t.Fatalf("filter input = %T, want join", f.Input)
	}
}

// TestOptimizeCrossBlockPushdown: an outer predicate migrates through a
// derived block, rewritten through the projection.
func TestOptimizeCrossBlockPushdown(t *testing.T) {
	root := plan.Optimize(mustLower(t,
		"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 1.5) WHERE s > 3"),
		plan.Options{CrossBlock: true})
	d := root.(*plan.Project).Input.(*plan.Derived)
	sc := d.Input.(*plan.Project).Input.(*plan.Scan)
	want := "z < 1.5 AND x + y > 3"
	if sc.Predicate == nil || sc.Predicate.SQL() != want {
		t.Fatalf("inner scan predicate = %v, want %q", sc.Predicate, want)
	}

	// Without CrossBlock the block boundary is respected.
	root = plan.Optimize(mustLower(t,
		"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 1.5) WHERE s > 3"),
		plan.Options{})
	if _, ok := root.(*plan.Project).Input.(*plan.Filter); !ok {
		t.Fatalf("filter crossed the block boundary without CrossBlock")
	}

	// A LIMIT inside the block must block the migration (it would change
	// which rows survive).
	root = plan.Optimize(mustLower(t,
		"SELECT s FROM (SELECT x AS s FROM d LIMIT 5) WHERE s > 3"),
		plan.Options{CrossBlock: true})
	if _, ok := root.(*plan.Project).Input.(*plan.Filter); !ok {
		t.Fatalf("filter pushed past a LIMIT")
	}
}

// TestOptimizePrunesScanColumns: with a catalog, only referenced columns
// stay on the scan; filter-only columns ride the predicate (which runs
// pre-projection) and are pruned too.
func TestOptimizePrunesScanColumns(t *testing.T) {
	root := plan.Optimize(mustLower(t, "SELECT x + y AS s FROM d WHERE z < 1"),
		plan.Options{Catalog: testCatalog()})
	sc := root.(*plan.Project).Input.(*plan.Scan)
	if got := strings.Join(sc.Columns, ","); got != "x,y" {
		t.Fatalf("pruned columns = %q, want \"x,y\"", got)
	}

	// Star projections read everything: no pruning.
	root = plan.Optimize(mustLower(t, "SELECT * FROM d WHERE z < 1"),
		plan.Options{Catalog: testCatalog()})
	sc = root.(*plan.Project).Input.(*plan.Scan)
	if sc.Columns != nil {
		t.Fatalf("star projection pruned to %v", sc.Columns)
	}

	// Grouped query: group-by and aggregate argument columns survive.
	root = plan.Optimize(mustLower(t, "SELECT cell, AVG(z) FROM d GROUP BY cell"),
		plan.Options{Catalog: testCatalog()})
	asc := root.(*plan.Aggregate).Input.(*plan.Scan)
	if got := strings.Join(asc.Columns, ","); got != "cell,z" {
		t.Fatalf("grouped pruning = %q, want \"cell,z\"", got)
	}

	// ORDER BY reaching back to an input column keeps that column; an
	// alias does not.
	root = plan.Optimize(mustLower(t, "SELECT x AS a FROM d ORDER BY z"),
		plan.Options{Catalog: testCatalog()})
	ssc := root.(*plan.Sort).Input.(*plan.Project).Input.(*plan.Scan)
	if got := strings.Join(ssc.Columns, ","); got != "x,z" {
		t.Fatalf("order-by pruning = %q, want \"x,z\"", got)
	}
}

// TestExplainRendersProvenance: policy provenance is visible in String().
func TestExplainRendersProvenance(t *testing.T) {
	root := mustLower(t, "SELECT x FROM d WHERE z < 2")
	plan.Walk(root, func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			f.Prov = append(f.Prov, plan.Provenance{
				Origin: "policy", Module: "M1",
				Rule:    "selection control (injected condition)",
				Columns: []string{"z"}, Detail: "z < 2",
			})
		}
	})
	out := plan.String(root)
	if !strings.Contains(out, "policy:M1 selection control") || !strings.Contains(out, "[z]") {
		t.Fatalf("explain misses provenance:\n%s", out)
	}
	// Provenance survives pushdown into the scan.
	root = plan.Optimize(root, plan.Options{})
	out = plan.String(root)
	if !strings.Contains(out, "pushed=(z < 2)") || !strings.Contains(out, "policy:M1") {
		t.Fatalf("provenance lost in pushdown:\n%s", out)
	}
}

// TestBaseTables walks scans across blocks and joins.
func TestBaseTables(t *testing.T) {
	root := mustLower(t, "SELECT s FROM (SELECT d.x AS s FROM d JOIN cells ON d.cell = cells.cell)")
	got := plan.BaseTables(root)
	if len(got) != 2 || got[0] != "d" || got[1] != "cells" {
		t.Fatalf("BaseTables = %v", got)
	}
}

// Corner cases the lowering pass must handle (satellite): quoted
// identifiers, SELECT * with joins, nested subqueries in FROM, NULL-literal
// comparisons.
func TestLoweringCornerCases(t *testing.T) {
	cases := []string{
		`SELECT "Weird Name" FROM d WHERE "Weird Name" > 1`,
		"SELECT * FROM d JOIN cells ON d.cell = cells.cell",
		"SELECT v FROM (SELECT u AS v FROM (SELECT x AS u FROM d WHERE x > 0) WHERE u < 9)",
		"SELECT x FROM d WHERE y = NULL",
		"SELECT x FROM d WHERE y IS NOT NULL AND z IS NULL",
	}
	for _, q := range cases {
		sel := mustParse(t, q)
		root, err := plan.FromAST(sel)
		if err != nil {
			t.Fatalf("lower %q: %v", q, err)
		}
		back, err := plan.ToSelect(root)
		if err != nil {
			t.Fatalf("render %q: %v", q, err)
		}
		if got, want := back.SQL(), sel.SQL(); got != want {
			t.Errorf("corner round trip %q:\n got %q\nwant %q", q, got, want)
		}
		// The optimizer must also leave these executable: x = NULL folds to
		// NULL (not an error), quoted identifiers resolve case-sensitively.
		plan.Optimize(root, plan.Options{Catalog: testCatalog(), CrossBlock: true})
	}

	// NULL-literal comparison folds to a NULL literal, which filters
	// everything (SQL three-valued logic) — not to FALSE and not an error.
	root := plan.Optimize(mustLower(t, "SELECT x FROM d WHERE 1 = NULL"), plan.Options{})
	sc := root.(*plan.Project).Input.(*plan.Scan)
	if sc.Predicate == nil || sc.Predicate.SQL() != "NULL" {
		t.Fatalf("1 = NULL folded to %v, want NULL", sc.Predicate)
	}
}

// TestCrossBlockPushdownAmbiguousNames (regression, PR 3 bug): when two
// derived-table output items share a lower-cased name, a reference to any
// output column of that block is potentially ambiguous — the push must bail
// so the runtime resolves (and rejects) the reference exactly like the
// unoptimized plan, instead of silently substituting the last duplicate.
func TestCrossBlockPushdownAmbiguousNames(t *testing.T) {
	root := plan.Optimize(mustLower(t,
		"SELECT z FROM (SELECT x AS s, y AS s, z FROM d) WHERE s > 3"),
		plan.Options{CrossBlock: true})
	if _, ok := root.(*plan.Project).Input.(*plan.Filter); !ok {
		t.Fatalf("filter pushed through a block with duplicate output names:\n%s", plan.String(root))
	}
}

// TestCloneIsDeep: a clone renders like its original, and optimizing it (in
// place, as Optimize does) leaves the original exactly as it was — which is
// what lets a fragment root that shares subtrees with its statement's plan
// be optimized on its own.
func TestCloneIsDeep(t *testing.T) {
	for _, q := range []string{
		"SELECT d.x, cells.label FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 2 AND 1 = 1",
		"SELECT DISTINCT x FROM d WHERE z < 1 + 1 ORDER BY x LIMIT 3",
		"SELECT cell, COUNT(*) AS n FROM (SELECT cell, z FROM d WHERE z < 2) AS s GROUP BY cell HAVING COUNT(*) > 1",
		"SELECT x, AVG(z) OVER (PARTITION BY cell ORDER BY t) AS a FROM d",
		"SELECT 1",
	} {
		orig := mustLower(t, q)
		before := plan.String(orig)
		clone := plan.Clone(orig)
		if got := plan.String(clone); got != before {
			t.Fatalf("%q: clone renders\n%s\nwant\n%s", q, got, before)
		}
		opt := plan.Optimize(clone, plan.Options{Catalog: testCatalog(), CrossBlock: true})
		if plan.String(orig) != before {
			t.Fatalf("%q: optimizing the clone changed the original:\n%s\nwas\n%s", q, plan.String(orig), before)
		}
		if strings.Contains(q, "WHERE") && plan.String(opt) == before {
			t.Fatalf("%q: Optimize changed nothing, the test cannot tell a shared tree from a deep copy", q)
		}
	}
}
