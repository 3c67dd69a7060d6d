package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCtxCompletesWithLiveContext(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var hits atomic.Int64
		err := ForEachNCtx(context.Background(), workers, 100, func(i int) error {
			hits.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if hits.Load() != 100 {
			t.Fatalf("workers=%d: ran %d of 100 indices", workers, hits.Load())
		}
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		called := false
		err := ForEachNCtx(ctx, workers, 10, func(i int) error {
			called = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if called {
			t.Errorf("workers=%d: fn ran despite pre-cancelled context", workers)
		}
	}
}

func TestForEachCtxStopsClaimingAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int64
	err := ForEachNCtx(ctx, 4, 10_000, func(i int) error {
		if hits.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// In-flight calls finish but no new indices are claimed after the
	// cancellation is observed; with 4 workers the overshoot is small.
	if n := hits.Load(); n >= 10_000 {
		t.Fatalf("all %d indices ran despite cancellation", n)
	}
}

func TestForEachCtxFnErrorWinsAtSmallerIndex(t *testing.T) {
	boom := errors.New("boom")
	err := ForEachNCtx(context.Background(), 4, 100, func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the index-0 fn error", err)
	}
}

func TestMapCtxMatchesSequential(t *testing.T) {
	want := make([]int, 50)
	for i := range want {
		want[i] = i * i
	}
	got, err := MapNCtx(context.Background(), 4, 50, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMapCtxCancelledReturnsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := MapNCtx(ctx, DefaultWorkers(), 10, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got != nil {
		t.Fatalf("got = %v, want nil on error", got)
	}
}
