package schema

import (
	"context"
	"testing"
)

func iterRows(n int) Rows {
	out := make(Rows, n)
	for i := range out {
		out[i] = Row{Int(int64(i))}
	}
	return out
}

func TestIterateRowsBatches(t *testing.T) {
	it := IterateRows(iterRows(10), 3)
	var total, batches int
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		total += len(b)
	}
	if total != 10 || batches != 4 {
		t.Fatalf("total=%d batches=%d", total, batches)
	}
}

func TestIterateRowsEmpty(t *testing.T) {
	it := IterateRows(nil, 4)
	if b, err := it.Next(); err != nil || b != nil {
		t.Fatalf("empty iterator yielded %v, %v", b, err)
	}
}

func TestProjectRelation(t *testing.T) {
	rel := NewRelation("r", Col("a", TypeInt), Col("b", TypeFloat), Col("c", TypeString))
	p := rel.Project([]int{2, 0})
	if p.Arity() != 2 || p.Columns[0].Name != "c" || p.Columns[1].Name != "a" {
		t.Fatalf("projected = %s", p)
	}
	if rel.Project(nil) != rel {
		t.Fatal("nil projection should return the relation unchanged")
	}
}

// TestIteratorCloseIdempotent: every iterator of this package tolerates a
// double Close and stays exhausted afterwards — cursors make double-Close
// an easy caller mistake, so the whole stack must absorb it.
func TestIteratorCloseIdempotent(t *testing.T) {
	rows := Rows{{Int(1)}, {Int(2)}, {Int(3)}}
	iters := map[string]RowIterator{
		"slice": IterateRows(rows, 2),
		"ctx":   WithContext(cancelledCtx(), IterateRows(rows, 2)),
	}
	for name, it := range iters {
		it.Close()
		it.Close() // must not panic or resurrect the stream
		b, err := it.Next()
		if name == "ctx" {
			if err == nil {
				t.Errorf("%s: Next after Close should keep the ctx error", name)
			}
			continue
		}
		if b != nil || err != nil {
			t.Errorf("%s: Next after double Close = %v, %v; want nil, nil", name, b, err)
		}
	}
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
