package engine

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"paradise/internal/schema"
	"paradise/internal/storage"
)

// testStore builds the small sensor database used throughout these tests.
func testStore(t testing.TB) *storage.Store {
	t.Helper()
	st := storage.NewStore()

	d := st.Create(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
	))
	rows := []struct{ x, y, z float64 }{
		{5, 1, 1.5}, {6, 2, 1.0}, {7, 3, 0.5}, {2, 4, 1.9},
		{8, 1, 3.0}, {9, 2, 1.2}, {3, 9, 0.8}, {10, 4, 1.1},
	}
	for i, r := range rows {
		if err := d.Append(schema.Row{
			schema.Float(r.x), schema.Float(r.y), schema.Float(r.z), schema.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}

	people := st.Create(schema.NewRelation("people",
		schema.SensitiveCol("name", schema.TypeString),
		schema.Col("age", schema.TypeInt),
		schema.Col("room", schema.TypeString),
	))
	for _, p := range []struct {
		name string
		age  int64
		room string
	}{
		{"alice", 30, "lab"}, {"bob", 41, "lab"}, {"carol", 30, "office"},
		{"dave", 55, "office"}, {"erin", 41, "lab"},
	} {
		if err := people.Append(schema.Row{schema.String(p.name), schema.Int(p.age), schema.String(p.room)}); err != nil {
			t.Fatal(err)
		}
	}

	rooms := st.Create(schema.NewRelation("rooms",
		schema.Col("room", schema.TypeString),
		schema.Col("floor", schema.TypeInt),
	))
	for _, r := range []struct {
		room  string
		floor int64
	}{{"lab", 2}, {"office", 3}} {
		if err := rooms.Append(schema.Row{schema.String(r.room), schema.Int(r.floor)}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func mustQuery(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

func TestSelectAll(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT * FROM d")
	if len(res.Rows) != 8 || res.Schema.Arity() != 4 {
		t.Fatalf("got %d rows, %d cols", len(res.Rows), res.Schema.Arity())
	}
	if res.Schema.Columns[0].Name != "x" {
		t.Fatalf("first col = %q", res.Schema.Columns[0].Name)
	}
}

func TestWhereFilter(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT * FROM d WHERE z < 2")
	if len(res.Rows) != 7 {
		t.Fatalf("z<2 should keep 7 rows, got %d", len(res.Rows))
	}
	res = mustQuery(t, e, "SELECT * FROM d WHERE x > y")
	if len(res.Rows) != 6 {
		t.Fatalf("x>y should keep 6 rows, got %d", len(res.Rows))
	}
	res = mustQuery(t, e, "SELECT * FROM d WHERE x > y AND z < 2")
	if len(res.Rows) != 5 {
		t.Fatalf("conjunction should keep 5 rows, got %d", len(res.Rows))
	}
}

func TestProjectionAndAlias(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT x + y AS s, z FROM d WHERE t = 0")
	if res.Schema.Columns[0].Name != "s" || res.Schema.Columns[1].Name != "z" {
		t.Fatalf("schema = %s", res.Schema)
	}
	if got := res.Rows[0][0].AsFloat(); got != 6 {
		t.Fatalf("5+1 = %v", got)
	}
}

func TestAggregatesWholeTable(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM people")
	row := res.Rows[0]
	if row[0].AsInt() != 5 {
		t.Fatalf("count = %v", row[0].Format())
	}
	if row[1].AsInt() != 197 {
		t.Fatalf("sum = %v", row[1].Format())
	}
	if math.Abs(row[2].AsFloat()-39.4) > 1e-9 {
		t.Fatalf("avg = %v", row[2].Format())
	}
	if row[3].AsInt() != 30 || row[4].AsInt() != 55 {
		t.Fatalf("min/max = %v/%v", row[3].Format(), row[4].Format())
	}
}

func TestCountEmptyIsZero(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT COUNT(*) FROM people WHERE age > 100")
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("count over empty = %v", res.Rows[0][0].Format())
	}
	// SUM over empty input is NULL per SQL.
	res = mustQuery(t, e, "SELECT SUM(age) FROM people WHERE age > 100")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("sum over empty = %v", res.Rows[0][0].Format())
	}
}

func TestGroupByHaving(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT room, COUNT(*) AS n FROM people GROUP BY room HAVING COUNT(*) > 2 ORDER BY room")
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 group, got %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "lab" || res.Rows[0][1].AsInt() != 3 {
		t.Fatalf("got %v/%v", res.Rows[0][0].Format(), res.Rows[0][1].Format())
	}
}

func TestPaperInnerAggregation(t *testing.T) {
	// The media-center fragment from §4.2:
	// SELECT x, y, AVG(z) AS zAVG, t FROM d GROUP BY x, y HAVING SUM(z) > 100.
	// Our test data's sums are small, so use a threshold it can meet.
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT x, y, AVG(z) AS zavg, t FROM d GROUP BY x, y HAVING SUM(z) > 1")
	if res.Schema.Columns[2].Name != "zavg" {
		t.Fatalf("schema = %s", res.Schema)
	}
	for _, r := range res.Rows {
		if r[2].IsNull() {
			t.Fatal("zavg should not be NULL")
		}
	}
	// Each (x,y) pair in the fixture is unique, so AVG(z) == z and
	// HAVING SUM(z) > 1 keeps the 5 rows with z > 1.
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 groups with sum(z)>1, got %d", len(res.Rows))
	}
}

func TestJoins(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT p.name, r.floor FROM people AS p JOIN rooms AS r ON p.room = r.room ORDER BY p.name")
	if len(res.Rows) != 5 {
		t.Fatalf("join should yield 5 rows, got %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "alice" || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("first row %v/%v", res.Rows[0][0].Format(), res.Rows[0][1].Format())
	}
}

func TestLeftJoinProducesNulls(t *testing.T) {
	st := testStore(t)
	extra := st.Create(schema.NewRelation("gadgets",
		schema.Col("room", schema.TypeString),
		schema.Col("gadget", schema.TypeString),
	))
	if err := extra.Append(schema.Row{schema.String("lab"), schema.String("smartboard")}); err != nil {
		t.Fatal(err)
	}
	e := New(st)
	res := mustQuery(t, e, "SELECT r.room, g.gadget FROM rooms AS r LEFT JOIN gadgets AS g ON r.room = g.room ORDER BY r.room")
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(res.Rows))
	}
	if !res.Rows[1][1].IsNull() {
		t.Fatalf("office gadget should be NULL, got %v", res.Rows[1][1].Format())
	}
}

func TestCrossJoin(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT * FROM rooms CROSS JOIN rooms AS r2")
	if len(res.Rows) != 4 {
		t.Fatalf("2x2 cross join should be 4 rows, got %d", len(res.Rows))
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT p.name FROM people AS p JOIN rooms AS r ON p.age > r.floor * 10 ORDER BY p.name")
	// lab floor 2 -> age > 20 matches all 5; office floor 3 -> age > 30 matches 3 (41, 55, 41).
	if len(res.Rows) != 8 {
		t.Fatalf("want 8 rows, got %d", len(res.Rows))
	}
}

func TestSubqueryInFrom(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT s FROM (SELECT x + y AS s FROM d) WHERE s > 10 ORDER BY s")
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 rows with s>10, got %d", len(res.Rows))
	}
}

func TestPaperWindowQuery(t *testing.T) {
	// SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t)
	// FROM (SELECT x, y, z, t FROM d)
	e := New(testStore(t))
	res := mustQuery(t, e,
		"SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) FROM (SELECT x, y, z, t FROM d)")
	if len(res.Rows) != 8 {
		t.Fatalf("window query preserves cardinality, got %d", len(res.Rows))
	}
}

func TestWindowCumulativeSum(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT t, SUM(z) OVER (ORDER BY t) AS rz FROM d ORDER BY t")
	prev := -1.0
	for _, r := range res.Rows {
		v := r[1].AsFloat()
		if v < prev {
			t.Fatalf("cumulative sum decreased: %v after %v", v, prev)
		}
		prev = v
	}
	// The final cumulative value equals the total sum.
	total := mustQuery(t, e, "SELECT SUM(z) FROM d").Rows[0][0].AsFloat()
	if math.Abs(prev-total) > 1e-9 {
		t.Fatalf("final running sum %v != total %v", prev, total)
	}
}

func TestWindowPartitionAvg(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT room, AVG(age) OVER (PARTITION BY room) AS a FROM people ORDER BY room, a")
	byRoom := map[string]float64{}
	for _, r := range res.Rows {
		byRoom[r[0].AsString()] = r[1].AsFloat()
	}
	if math.Abs(byRoom["lab"]-(30+41+41)/3.0) > 1e-9 {
		t.Fatalf("lab avg = %v", byRoom["lab"])
	}
	if math.Abs(byRoom["office"]-(30+55)/2.0) > 1e-9 {
		t.Fatalf("office avg = %v", byRoom["office"])
	}
}

func TestWindowRowNumberRank(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT name, ROW_NUMBER() OVER (ORDER BY age) AS rn, RANK() OVER (ORDER BY age) AS rk FROM people ORDER BY rn")
	if len(res.Rows) != 5 {
		t.Fatal("5 rows expected")
	}
	// ages sorted: 30, 30, 41, 41, 55 -> ranks 1,1,3,3,5
	wantRank := []int64{1, 1, 3, 3, 5}
	for i, r := range res.Rows {
		if r[1].AsInt() != int64(i+1) {
			t.Fatalf("row_number[%d] = %v", i, r[1].Format())
		}
		if r[2].AsInt() != wantRank[i] {
			t.Fatalf("rank[%d] = %v, want %d", i, r[2].Format(), wantRank[i])
		}
	}
}

func TestWindowLagLead(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT t, LAG(t) OVER (ORDER BY t) AS p, LEAD(t) OVER (ORDER BY t) AS n FROM d ORDER BY t")
	if !res.Rows[0][1].IsNull() {
		t.Fatal("first LAG should be NULL")
	}
	if !res.Rows[len(res.Rows)-1][2].IsNull() {
		t.Fatal("last LEAD should be NULL")
	}
	if res.Rows[1][1].AsInt() != 0 {
		t.Fatalf("LAG at t=1 should be 0, got %v", res.Rows[1][1].Format())
	}
}

func TestRegrIntercept(t *testing.T) {
	// Perfectly linear data: y = 2x + 3.
	st := storage.NewStore()
	tab := st.Create(schema.NewRelation("lin",
		schema.Col("x", schema.TypeFloat), schema.Col("y", schema.TypeFloat)))
	for i := 0; i < 10; i++ {
		x := float64(i)
		if err := tab.Append(schema.Row{schema.Float(x), schema.Float(2*x + 3)}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(st)
	res := mustQuery(t, e, "SELECT REGR_INTERCEPT(y, x), REGR_SLOPE(y, x), REGR_R2(y, x), CORR(y, x) FROM lin")
	r := res.Rows[0]
	if math.Abs(r[0].AsFloat()-3) > 1e-9 {
		t.Fatalf("intercept = %v", r[0].Format())
	}
	if math.Abs(r[1].AsFloat()-2) > 1e-9 {
		t.Fatalf("slope = %v", r[1].Format())
	}
	if math.Abs(r[2].AsFloat()-1) > 1e-9 {
		t.Fatalf("r2 = %v", r[2].Format())
	}
	if math.Abs(r[3].AsFloat()-1) > 1e-9 {
		t.Fatalf("corr = %v", r[3].Format())
	}
}

func TestStddevVariance(t *testing.T) {
	st := storage.NewStore()
	tab := st.Create(schema.NewRelation("v", schema.Col("x", schema.TypeFloat)))
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		if err := tab.Append(schema.Row{schema.Float(x)}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(st)
	res := mustQuery(t, e, "SELECT VARIANCE(x), STDDEV(x) FROM v")
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(res.Rows[0][0].AsFloat()-32.0/7.0) > 1e-9 {
		t.Fatalf("variance = %v", res.Rows[0][0].Format())
	}
	if math.Abs(res.Rows[0][1].AsFloat()-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Fatalf("stddev = %v", res.Rows[0][1].Format())
	}
}

func TestDistinct(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT DISTINCT room FROM people ORDER BY room")
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 distinct rooms, got %d", len(res.Rows))
	}
	res = mustQuery(t, e, "SELECT COUNT(DISTINCT age) FROM people")
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("distinct ages = %v", res.Rows[0][0].Format())
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT name, age FROM people ORDER BY age DESC, name LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("limit 2, got %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "dave" {
		t.Fatalf("first = %v", res.Rows[0][0].Format())
	}
	if res.Rows[1][0].AsString() != "bob" { // bob before erin at age 41
		t.Fatalf("second = %v", res.Rows[1][0].Format())
	}
}

func TestOrderByProjectedAwayColumn(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT name FROM people ORDER BY age DESC, name LIMIT 1")
	if res.Rows[0][0].AsString() != "dave" {
		t.Fatalf("got %v", res.Rows[0][0].Format())
	}
}

func TestNullSemantics(t *testing.T) {
	st := storage.NewStore()
	tab := st.Create(schema.NewRelation("n",
		schema.Col("a", schema.TypeInt), schema.Col("b", schema.TypeInt)))
	rows := []schema.Row{
		{schema.Int(1), schema.Int(10)},
		{schema.Int(2), schema.Null()},
		{schema.Null(), schema.Int(30)},
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	e := New(st)

	// NULL comparisons are filtered out.
	res := mustQuery(t, e, "SELECT * FROM n WHERE b > 5")
	if len(res.Rows) != 2 {
		t.Fatalf("b>5 keeps 2 rows, got %d", len(res.Rows))
	}
	// IS NULL
	res = mustQuery(t, e, "SELECT * FROM n WHERE b IS NULL")
	if len(res.Rows) != 1 {
		t.Fatalf("IS NULL keeps 1 row, got %d", len(res.Rows))
	}
	// COUNT(col) skips NULLs, COUNT(*) does not.
	res = mustQuery(t, e, "SELECT COUNT(*), COUNT(b), AVG(b) FROM n")
	if res.Rows[0][0].AsInt() != 3 || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("counts = %v/%v", res.Rows[0][0].Format(), res.Rows[0][1].Format())
	}
	if math.Abs(res.Rows[0][2].AsFloat()-20) > 1e-9 {
		t.Fatalf("avg skips NULL: %v", res.Rows[0][2].Format())
	}
	// NULL arithmetic propagates.
	res = mustQuery(t, e, "SELECT a + b FROM n WHERE a = 2")
	if !res.Rows[0][0].IsNull() {
		t.Fatal("NULL + x should be NULL")
	}
	// COALESCE
	res = mustQuery(t, e, "SELECT COALESCE(b, -1) FROM n WHERE a = 2")
	if res.Rows[0][0].AsInt() != -1 {
		t.Fatalf("coalesce = %v", res.Rows[0][0].Format())
	}
}

func TestThreeValuedLogic(t *testing.T) {
	st := storage.NewStore()
	tab := st.Create(schema.NewRelation("tv", schema.Col("a", schema.TypeInt)))
	if err := tab.Append(schema.Row{schema.Null()}, schema.Row{schema.Int(1)}); err != nil {
		t.Fatal(err)
	}
	e := New(st)
	// FALSE AND NULL = FALSE -> NOT ... = TRUE
	res := mustQuery(t, e, "SELECT COUNT(*) FROM tv WHERE NOT (1 = 2 AND a > 0)")
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("false AND null should be false for all rows; got %v", res.Rows[0][0].Format())
	}
	// TRUE OR NULL = TRUE
	res = mustQuery(t, e, "SELECT COUNT(*) FROM tv WHERE 1 = 1 OR a > 0")
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("true OR null = true; got %v", res.Rows[0][0].Format())
	}
	// NULL AND TRUE filters out.
	res = mustQuery(t, e, "SELECT COUNT(*) FROM tv WHERE a > 0 AND 1 = 1")
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("null AND true filters; got %v", res.Rows[0][0].Format())
	}
}

func TestScalarFunctions(t *testing.T) {
	e := New(testStore(t))
	cases := []struct {
		sql  string
		want float64
	}{
		{"SELECT ABS(-3.5) FROM rooms LIMIT 1", 3.5},
		{"SELECT ROUND(3.456, 2) FROM rooms LIMIT 1", 3.46},
		{"SELECT FLOOR(3.9) FROM rooms LIMIT 1", 3},
		{"SELECT CEIL(3.1) FROM rooms LIMIT 1", 4},
		{"SELECT SQRT(16) FROM rooms LIMIT 1", 4},
		{"SELECT POWER(2, 10) FROM rooms LIMIT 1", 1024},
		{"SELECT MOD(10, 3) FROM rooms LIMIT 1", 1},
		{"SELECT SIGN(-9) FROM rooms LIMIT 1", -1},
		{"SELECT LENGTH('hello') FROM rooms LIMIT 1", 5},
		{"SELECT GREATEST(1, 5, 3) FROM rooms LIMIT 1", 5},
		{"SELECT LEAST(1, 5, 3) FROM rooms LIMIT 1", 1},
	}
	for _, c := range cases {
		res := mustQuery(t, e, c.sql)
		got := res.Rows[0][0]
		var f float64
		switch got.Type() {
		case schema.TypeInt:
			f = float64(got.AsInt())
		case schema.TypeFloat:
			f = got.AsFloat()
		default:
			t.Fatalf("%s: non-numeric %v", c.sql, got.Format())
		}
		if math.Abs(f-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.sql, f, c.want)
		}
	}
	res := mustQuery(t, e, "SELECT UPPER(name) FROM people WHERE name = 'alice'")
	if res.Rows[0][0].AsString() != "ALICE" {
		t.Fatalf("upper = %v", res.Rows[0][0].Format())
	}
	res = mustQuery(t, e, "SELECT SUBSTR('smartboard', 1, 5) FROM rooms LIMIT 1")
	if res.Rows[0][0].AsString() != "smart" {
		t.Fatalf("substr = %v", res.Rows[0][0].Format())
	}
}

func TestLike(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT name FROM people WHERE name LIKE 'a%'")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "alice" {
		t.Fatalf("LIKE 'a%%' = %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT name FROM people WHERE name LIKE '_ob'")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "bob" {
		t.Fatalf("LIKE '_ob' failed")
	}
	res = mustQuery(t, e, "SELECT name FROM people WHERE name NOT LIKE '%a%' ORDER BY name")
	if len(res.Rows) != 2 { // bob, erin
		t.Fatalf("NOT LIKE = %d rows", len(res.Rows))
	}
}

func TestCaseExpr(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT name, CASE WHEN age < 35 THEN 'young' WHEN age < 50 THEN 'mid' ELSE 'senior' END AS band FROM people ORDER BY name")
	want := map[string]string{"alice": "young", "bob": "mid", "carol": "young", "dave": "senior", "erin": "mid"}
	for _, r := range res.Rows {
		if got := r[1].AsString(); got != want[r[0].AsString()] {
			t.Fatalf("%s -> %s", r[0].AsString(), got)
		}
	}
}

func TestErrorCases(t *testing.T) {
	e := New(testStore(t))
	bad := []string{
		"SELECT nosuch FROM d",
		"SELECT x FROM nosuchtable",
		"SELECT room FROM people JOIN rooms ON people.room = rooms.room", // ambiguous
		"SELECT * FROM people GROUP BY room",
		"SELECT SUM(age) FROM people WHERE SUM(age) > 1",
		"SELECT x / 0 FROM d",
		"SELECT UNKNOWNFUNC(x) FROM d",
		"SELECT x FROM d WHERE x > 'text'",
	}
	for _, q := range bad {
		if _, err := e.Query(context.Background(), q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestAmbiguityResolvedByQualifier(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT people.room FROM people JOIN rooms ON people.room = rooms.room LIMIT 1")
	if res.Rows[0][0].IsNull() {
		t.Fatal("qualified column should resolve")
	}
}

func TestNestedSubqueries(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, `
		SELECT s FROM (
			SELECT SUM(z) AS s FROM (
				SELECT z FROM d WHERE z < 2
			)
		)`)
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(res.Rows))
	}
	want := mustQuery(t, e, "SELECT SUM(z) FROM d WHERE z < 2").Rows[0][0].AsFloat()
	if math.Abs(res.Rows[0][0].AsFloat()-want) > 1e-9 {
		t.Fatalf("nested = %v, want %v", res.Rows[0][0].Format(), want)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT 1 + 2 AS three")
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("got %v", res.Rows[0][0].Format())
	}
}

func TestGroupKeyNullsGroupTogether(t *testing.T) {
	st := storage.NewStore()
	tab := st.Create(schema.NewRelation("g", schema.Col("k", schema.TypeString), schema.Col("v", schema.TypeInt)))
	if err := tab.Append(
		schema.Row{schema.Null(), schema.Int(1)},
		schema.Row{schema.Null(), schema.Int(2)},
		schema.Row{schema.String("a"), schema.Int(3)},
	); err != nil {
		t.Fatal(err)
	}
	e := New(st)
	res := mustQuery(t, e, "SELECT k, COUNT(*) FROM g GROUP BY k")
	if len(res.Rows) != 2 {
		t.Fatalf("NULLs should form one group: %d groups", len(res.Rows))
	}
}

func TestTimeValues(t *testing.T) {
	st := storage.NewStore()
	tab := st.Create(schema.NewRelation("ts",
		schema.Col("at", schema.TypeTime), schema.Col("v", schema.TypeInt)))
	base := time.Date(2016, 3, 15, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		if err := tab.Append(schema.Row{schema.Time(base.Add(time.Duration(i) * time.Minute)), schema.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(st)
	res := mustQuery(t, e, "SELECT v FROM ts ORDER BY at DESC LIMIT 1")
	if res.Rows[0][0].AsInt() != 4 {
		t.Fatalf("latest v = %v", res.Rows[0][0].Format())
	}
}

func TestResultWireSize(t *testing.T) {
	e := New(testStore(t))
	all := mustQuery(t, e, "SELECT * FROM d")
	one := mustQuery(t, e, "SELECT x FROM d")
	if all.WireSize() <= one.WireSize() {
		t.Fatalf("projection should shrink wire size: %d vs %d", all.WireSize(), one.WireSize())
	}
}

func TestImplicitAliasAndExpressionNames(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT AVG(z) FROM d")
	if res.Schema.Columns[0].Name != "avg" {
		t.Fatalf("default name = %q", res.Schema.Columns[0].Name)
	}
	res = mustQuery(t, e, "SELECT x + 1 FROM d LIMIT 1")
	if !strings.HasPrefix(res.Schema.Columns[0].Name, "col") {
		t.Fatalf("synthesized name = %q", res.Schema.Columns[0].Name)
	}
}

func TestSensitivePropagation(t *testing.T) {
	e := New(testStore(t))
	res := mustQuery(t, e, "SELECT name, age FROM people LIMIT 1")
	if !res.Schema.Columns[0].Sensitive {
		t.Fatal("name should remain sensitive through projection")
	}
	if res.Schema.Columns[1].Sensitive {
		t.Fatal("age is not sensitive")
	}
}

// TestUnknownFilterColumnFailsWhateverTheData: a filter naming a column the
// table lacks fails at compile with the resolution error, whether the table
// is empty, a kernel prefix rejects every row before the unknown column
// would be read, or rows reach it — at every worker count, grouped or not,
// and whether the filter sits in a scan, above a join or above a derived
// table.
func TestUnknownFilterColumnFailsWhateverTheData(t *testing.T) {
	const (
		inScan    = `schema: unknown column: "nosuch" not found in (e.a, e.b)`
		inJoin    = `schema: unknown column: "nosuch" not found in (e.a, e.b, f.k)`
		inDerived = `schema: unknown column: "nosuch" not found in (s)`
	)
	store := func(rows int) *storage.Store {
		st := storage.NewStore()
		e := st.Create(schema.NewRelation("e", schema.Col("a", schema.TypeInt), schema.Col("b", schema.TypeString)))
		f := st.Create(schema.NewRelation("f", schema.Col("k", schema.TypeInt)))
		for i := 1; i <= rows; i++ {
			if err := e.Append(schema.Row{schema.Int(int64(i)), schema.String("v")}); err != nil {
				t.Fatal(err)
			}
			if err := f.Append(schema.Row{schema.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	cases := []struct {
		name string
		rows int
		sql  string
		want string
	}{
		{"empty", 0, "SELECT a FROM e WHERE nosuch > 1", inScan},
		{"all filtered", 3, "SELECT a FROM e WHERE a > 100 AND nosuch > 1", inScan},
		{"non-empty", 3, "SELECT a FROM e WHERE nosuch > 1", inScan},
		{"grouped, empty", 0, "SELECT a, COUNT(*) AS n FROM e WHERE nosuch > 1 GROUP BY a", inScan},
		{"grouped, all filtered", 3, "SELECT a, COUNT(*) AS n FROM e WHERE a > 100 AND nosuch > 1 GROUP BY a", inScan},
		{"join, empty", 0, "SELECT e.a FROM e JOIN f ON e.a = f.k WHERE nosuch > 1", inJoin},
		{"join, non-empty", 3, "SELECT e.a FROM e JOIN f ON e.a = f.k WHERE nosuch > 1", inJoin},
		{"derived, empty", 0, "SELECT s FROM (SELECT a AS s FROM e) WHERE nosuch > 1", inDerived},
		{"derived, non-empty", 3, "SELECT s FROM (SELECT a AS s FROM e) WHERE nosuch > 1", inDerived},
	}
	for _, c := range cases {
		st := store(c.rows)
		for _, workers := range []int{1, 4} {
			res, err := New(st).WithParallelism(workers).Query(context.Background(), c.sql)
			if err == nil {
				t.Fatalf("%s at %d workers: %d rows and no error, want %q", c.name, workers, len(res.Rows), c.want)
			}
			if err.Error() != c.want {
				t.Fatalf("%s at %d workers: error %q, want %q", c.name, workers, err, c.want)
			}
		}
	}
}
