package engine

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"testing"
	"time"

	"paradise/internal/schema"
)

// quietLog keeps the stacks the panic boundary logs out of the test output.
func quietLog(t *testing.T) {
	t.Helper()
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
}

// morselRows is n one-row batches, row i holding Int(i).
func morselRows(n int) schema.RowIterator {
	rows := make(schema.Rows, n)
	for i := range rows {
		rows[i] = schema.Row{schema.Int(int64(i))}
	}
	return schema.IterateRows(rows, 1)
}

// panicAt is a stage that panics on the morsel holding Int(at).
func panicAt(at int64) stageFactory {
	return func(bool) batchFn {
		return func(in schema.Rows) (schema.Rows, error) {
			if in[0][0].AsInt() == at {
				panic(fmt.Sprintf("stage bug at morsel %d", at))
			}
			return in, nil
		}
	}
}

// panickingSource panics on its third pull — a worker that holds no morsel.
type panickingSource struct {
	schema.RowIterator
	pulls int
}

func (p *panickingSource) Next() (schema.Rows, error) {
	if p.pulls++; p.pulls == 3 {
		panic("source bug")
	}
	return p.RowIterator.Next()
}

// TestExchangeContainsWorkerPanic: a stage that panics on the second morsel
// costs the query, not the process. At one worker (the elided exchange) and
// at four, the consumer sees the first morsel's rows, then exactly one
// ErrInternal where the second morsel's would have been, and the exchange
// shuts down with every worker gone. A panic while no morsel is held (the
// source itself) fails the stream at the consumer's next pull.
func TestExchangeContainsWorkerPanic(t *testing.T) {
	quietLog(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("stage/workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			seg := &parSeg{it: morselRows(64), mk: []stageFactory{panicAt(1)}, workers: workers}
			it := seg.iterator()
			first, err := it.Next()
			if err != nil || len(first) != 1 || first[0][0].AsInt() != 0 {
				t.Fatalf("first morsel = %v, %v; want row 0", first, err)
			}
			_, err = it.Next()
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("second morsel: err = %v, want ErrInternal", err)
			}
			if _, again := it.Next(); again != err {
				t.Fatalf("after the error: %v, want the same error again", again)
			}
			it.Close()
			requireNoExtraGoroutines(t, before)
		})
		t.Run(fmt.Sprintf("source/workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			pass := func(bool) batchFn { return func(in schema.Rows) (schema.Rows, error) { return in, nil } }
			seg := &parSeg{it: &panickingSource{RowIterator: morselRows(64)}, mk: []stageFactory{pass}, workers: workers}
			it := seg.iterator()
			rows, errs := 0, 0
			for {
				batch, err := it.Next()
				if err != nil {
					if !errors.Is(err, ErrInternal) {
						t.Fatalf("err = %v, want ErrInternal", err)
					}
					errs++
					break
				}
				if batch == nil {
					break
				}
				rows += len(batch)
			}
			// How many rows get out first depends on the race between the
			// other workers and the report; that the stream ends in the
			// error, never cleanly, does not.
			if errs != 1 {
				t.Fatalf("stream ended cleanly after %d rows, want it to end in the error", rows)
			}
			it.Close()
			requireNoExtraGoroutines(t, before)
		})
	}
}

// requireNoExtraGoroutines waits briefly for exited workers to be reaped.
func requireNoExtraGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
