package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSweepOrderIndependentOfWorkers(t *testing.T) {
	const n = 257
	want := make([]uint64, n)
	for i := range want {
		want[i] = Seed(42, i)
	}
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0), 64} {
		got, err := Sweep(context.Background(), n, Options{Workers: w},
			func(_ context.Context, i int) (uint64, error) { return Seed(42, i), nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	got, err := Sweep(context.Background(), 0, Options{}, func(context.Context, int) (int, error) {
		t.Fatal("task ran for n=0")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("n=0: got %v, %v", got, err)
	}
}

func TestSweepErrorReportsLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		_, err := Sweep(context.Background(), 100, Options{Workers: w},
			func(_ context.Context, i int) (int, error) {
				if i == 13 || i == 77 {
					return 0, boom
				}
				return i, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v does not wrap the task error", w, err)
		}
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: error %T is not a TaskError", w, err)
		}
		// With 1 worker the failing index is exactly 13; with several it
		// is one of the planted failures (cancellation may surface the
		// other first, but never an index that succeeded).
		if w == 1 && te.Index != 13 {
			t.Fatalf("sequential sweep reported index %d, want 13", te.Index)
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Sweep(ctx, 1<<20, Options{Workers: 2},
			func(ctx context.Context, i int) (int, error) {
				ran.Add(1)
				if i == 0 {
					close(release)
				}
				<-ctx.Done()
				return 0, ctx.Err()
			})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("sweep error = %v, want context.Canceled", err)
		}
	}()
	<-release
	cancel()
	<-done
	if ran.Load() > 2 {
		t.Fatalf("%d tasks started after cancellation, want <= workers", ran.Load())
	}
}

func TestSweepNilContext(t *testing.T) {
	got, err := Sweep(nil, 3, Options{Workers: 2}, //nolint:staticcheck // nil ctx is part of the contract
		func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestSeedDecorrelated(t *testing.T) {
	seen := make(map[uint64]int)
	for base := uint64(0); base < 4; base++ {
		for i := 0; i < 1000; i++ {
			s := Seed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: base=%d i=%d vs earlier %d", base, i, prev)
			}
			seen[s] = i
			if s2 := Seed(base, i); s2 != s {
				t.Fatal("Seed is not pure")
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(0, 0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0,0) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8,3) = %d", got)
	}
	if got := Workers(2, 100); got != 2 {
		t.Fatalf("Workers(2,100) = %d", got)
	}
}

// TestSweepHammer drives many concurrent Sweep calls (each with its own
// worker set) under the race detector; cross-call state is an atomic.
func TestSweepHammer(t *testing.T) {
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				res, err := Sweep(context.Background(), 50, Options{Workers: 3},
					func(_ context.Context, i int) (int, error) { return i, nil })
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range res {
					if v != i {
						t.Errorf("goroutine %d: res[%d]=%d", g, i, v)
						return
					}
					total.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if total.Load() != 8*20*50 {
		t.Fatalf("total %d", total.Load())
	}
}

func ExampleSweep() {
	// Ten independent trials, four at a time, results in trial order.
	res, _ := Sweep(context.Background(), 10, Options{Workers: 4},
		func(_ context.Context, trial int) (uint64, error) {
			return Seed(1, trial) % 100, nil
		})
	fmt.Println(len(res))
	// Output: 10
}
