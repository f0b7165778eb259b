package core

import (
	"crypto/md5"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/sim"
)

// TestCollectFastForwardWorkerInvariant pins that the approximate path keeps
// the collection's parallelism invariant: a fast-forwarded dataset is
// deep-equal for any worker count.
func TestCollectFastForwardWorkerInvariant(t *testing.T) {
	units := shortUnits()
	seq, err := Collect(Options{
		Sim: sim.Config{FastForward: true}, Runs: 2, Units: units, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Collect(Options{
		Sim: sim.Config{FastForward: true}, Runs: 2, Units: units, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Units, par.Units) {
		t.Fatal("fast-forwarded Workers=8 dataset differs from Workers=1")
	}
}

// TestCheckpointCanonicalAcrossWorkerCounts is the exact-mode identity
// guarantee the fast-forward work must not break: checkpoints written by
// collections at different worker counts hold identical records — the MD5
// over the (unit, run)-ordered record encodings matches.
func TestCheckpointCanonicalAcrossWorkerCounts(t *testing.T) {
	units := shortUnits()
	dir := t.TempDir()
	sums := map[int]string{}
	for _, workers := range []int{1, 4} {
		opts := Options{
			Sim: sim.Config{}, Runs: 2, Units: units, Workers: workers,
			Checkpoint: filepath.Join(dir, fmt.Sprintf("w%d.ckpt", workers)),
		}
		if _, err := Collect(opts); err != nil {
			t.Fatal(err)
		}
		fp, err := opts.CheckpointFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Load(opts.Checkpoint, fp)
		if err != nil {
			t.Fatal(err)
		}
		// Records land in completion order, which is scheduling-dependent;
		// canonicalize before hashing.
		sort.Slice(snap.Records, func(i, j int) bool {
			a, b := &snap.Records[i], &snap.Records[j]
			if a.Unit != b.Unit {
				return a.Unit < b.Unit
			}
			return a.Run < b.Run
		})
		h := md5.New()
		for i := range snap.Records {
			h.Write(checkpoint.EncodeRecord(fp, &snap.Records[i]))
		}
		sums[workers] = string(h.Sum(nil))
	}
	if sums[1] != sums[4] {
		t.Fatalf("canonical checkpoint MD5 differs across worker counts: %x vs %x", sums[1], sums[4])
	}
}
