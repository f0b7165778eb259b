package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mobilebench/internal/workload"
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

// TestConcurrentEnginesShareZipfTables runs two engines side by side over
// the same workloads. Their samplers target the same (n, s) pairs, so they
// draw from the same shared Zipf tables at once; under -race this audits
// that sharing, and every run must equal its sequential twin.
func TestConcurrentEnginesShareZipfTables(t *testing.T) {
	scene := workload.GFXHighScenes()[0]
	scene.Phases = scene.Phases[:1]
	scene.Phases[0].Duration = 3
	ws := []workload.Workload{tinyWorkload(), scene}

	want := make([]*Result, len(ws))
	seq := MustNew(Config{})
	for i, w := range ws {
		res, err := seq.Run(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(ws))
	for range 2 {
		eng := MustNew(Config{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range ws {
				res, err := eng.Run(w, 0)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res, want[i]) {
					errs <- fmt.Errorf("%s: concurrent engine's run differs from the sequential run", w.Name)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
