package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentRunsAreIndependent hammers one engine from many goroutines
// (the shape CollectContext produces) and checks every concurrent result
// equals its sequential twin. Run under -race this is also the engine's
// shared-state audit: any mutation of engine or platform state across runs
// trips the detector.
func TestConcurrentRunsAreIndependent(t *testing.T) {
	eng := MustNew(Config{})
	w := tinyWorkload()

	want := make([]*Result, 4)
	for r := range want {
		res, err := eng.Run(w, r)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = res
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				res, err := eng.Run(w, r)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res, want[r]) {
					errs <- errors.New("concurrent run differs from sequential run")
				}
			}(r)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	eng := MustNew(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunContext(ctx, tinyWorkload(), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAverageResultsValidation(t *testing.T) {
	if _, err := AverageResults("x", nil); err == nil {
		t.Fatal("empty result list accepted")
	}
	if _, err := AverageResults("x", []*Result{nil}); err == nil {
		t.Fatal("missing run result accepted")
	}
}
