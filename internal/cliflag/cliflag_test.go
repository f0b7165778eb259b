package cliflag

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mobilebench/internal/core"
	"mobilebench/internal/cosim"
	"mobilebench/internal/fault"
	"mobilebench/internal/sim"
	"mobilebench/internal/workload"
)

// TestMain doubles as the external timing-model child (the cosim re-exec
// pattern): with MBCOSIM_CHILD=1 the test binary serves the cosim protocol
// on its stdin/stdout, so Timing.Provider/Fingerprint can spawn a real
// child without building cmd/mbtiming.
func TestMain(m *testing.M) {
	if os.Getenv("MBCOSIM_CHILD") == "1" {
		if err := cosim.Serve(os.Stdin, os.Stdout, cosim.ServeOptions{Model: os.Getenv("MBCOSIM_MODEL")}); err != nil {
			fmt.Fprintln(os.Stderr, "cosim child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// parseCollection registers the collection flags (with the profile and
// timing groups) on a fresh flag set and parses args.
func parseCollection(t *testing.T, args ...string) *Collection {
	t.Helper()
	fs := newFlagSet()
	c := RegisterCollection(fs, 3)
	c.Profile = RegisterProfile(fs)
	c.Timing = RegisterTiming(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%v): %v", args, err)
	}
	return c
}

// TestTimingFingerprintProbe: Fingerprint spawns the model once, reads its
// identity and closes it — "" with no model configured, "" for an exact
// child (shares the in-process identity), "cosim:<model>" otherwise. The
// coordinator folds this value into its cache keys, so it must match what
// worker collections fingerprint.
func TestTimingFingerprintProbe(t *testing.T) {
	var tm Timing
	fp, err := tm.Fingerprint(nil)
	if err != nil || fp != "" {
		t.Fatalf("unconfigured Fingerprint = (%q, %v), want (\"\", nil)", fp, err)
	}

	// The spawned child is this test binary re-exec'd; it inherits the
	// parent environment, which t.Setenv steers.
	t.Setenv("MBCOSIM_CHILD", "1")
	t.Setenv("MBCOSIM_MODEL", cosim.ModelQDRAM)
	tm = Timing{ModelCmd: os.Args[0]}
	fp, err = tm.Fingerprint(nil)
	if err != nil {
		t.Fatalf("Fingerprint(qdram): %v", err)
	}
	if want := "cosim:" + cosim.ModelQDRAM; fp != want {
		t.Fatalf("qdram Fingerprint = %q, want %q", fp, want)
	}

	t.Setenv("MBCOSIM_MODEL", cosim.ModelAnalytic)
	fp, err = tm.Fingerprint(nil)
	if err != nil {
		t.Fatalf("Fingerprint(analytic): %v", err)
	}
	if fp != "" {
		t.Fatalf("exact analytic child Fingerprint = %q, want \"\" (shares the in-process identity)", fp)
	}
}

func TestResilienceFlagParsing(t *testing.T) {
	c := parseCollection(t,
		"-max-retries", "3",
		"-run-timeout", "45s",
		"-min-runs", "2",
		"-fail-fast",
		"-inject", "crash=0.2,nan=0.1,seed=7",
	)
	opts, err := c.options(sim.Config{}, nil)
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	want := core.Resilience{MaxRetries: 3, RunTimeout: 45 * time.Second, MinRuns: 2, FailFast: true}
	if opts.Resilience != want {
		t.Fatalf("Resilience = %+v, want %+v", opts.Resilience, want)
	}
	if c.InjectSpec != "crash=0.2,nan=0.1,seed=7" || opts.Fault == nil {
		t.Fatalf("InjectSpec = %q, injector %v", c.InjectSpec, opts.Fault)
	}
}

func TestResilienceDefaultsAreZero(t *testing.T) {
	opts, err := parseCollection(t).options(sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Resilience != (core.Resilience{}) {
		t.Fatalf("default policy = %+v, want the strict zero policy", opts.Resilience)
	}
	if opts.Fault != nil {
		t.Fatalf("default injector = %v, want nil", opts.Fault)
	}
	if opts.Runs != 3 || opts.Workers != 0 || opts.Checkpoint != "" || opts.Resume {
		t.Fatalf("default options = %+v", opts)
	}
}

// TestInjectSpecRoundTrip asserts the -inject flag and fault.Parse agree:
// the spec a user passes produces exactly the injector config the fault
// package documents for it.
func TestInjectSpecRoundTrip(t *testing.T) {
	spec := "crash=0.25,abort=0.1,hang=0.05,hang_sec=2,drop=0.1,nan=0.2,skew=0.15,seed=99,clean_after=4"
	opts, err := parseCollection(t, "-inject", spec).options(sim.Config{}, nil)
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	inj := opts.Fault
	if inj == nil {
		t.Fatal("options built no injector for a non-empty spec")
	}
	want, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inj.Config(), want.Config()) {
		t.Fatalf("flag-parsed injector config %+v differs from fault.Parse %+v", inj.Config(), want.Config())
	}
	if got := inj.Config(); got.Crash != 0.25 || got.Seed != 99 || got.CleanAfter != 4 || got.HangSec != 2 {
		t.Fatalf("spec fields not honoured: %+v", got)
	}
}

func TestInjectSpecRejectsGarbage(t *testing.T) {
	for _, spec := range []string{"crash=2", "bogus=0.5", "crash", "hang_sec=-1"} {
		// Flag parsing succeeds; validating the spec is options' job.
		if _, err := parseCollection(t, "-inject", spec).options(sim.Config{}, nil); err == nil {
			t.Fatalf("options accepted invalid spec %q", spec)
		}
	}
}

func TestCheckpointFlagParsing(t *testing.T) {
	opts, err := parseCollection(t, "-checkpoint", "run.ckpt", "-resume").options(sim.Config{}, nil)
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	if opts.Checkpoint != "run.ckpt" || !opts.Resume {
		t.Fatalf("options = %+v", opts)
	}
}

func TestCheckpointValidateRejectsBareResume(t *testing.T) {
	if _, err := parseCollection(t, "-resume").options(sim.Config{}, nil); err == nil {
		t.Fatal("-resume without -checkpoint should be rejected")
	}
	// And the defaults validate clean.
	if _, err := parseCollection(t).options(sim.Config{}, nil); err != nil {
		t.Fatalf("zero-value flags should validate: %v", err)
	}
}

// TestRegisterOnDefaultSetWiring pins that the registrars hit the flag set
// they are given with the canonical names and each CLI's -runs default (a
// fresh CommandLine keeps the test hermetic).
func TestRegisterOnDefaultSetWiring(t *testing.T) {
	old := flag.CommandLine
	defer func() { flag.CommandLine = old }()
	flag.CommandLine = flag.NewFlagSet("prog", flag.ContinueOnError)

	RegisterCollection(flag.CommandLine, 1)
	RegisterProfile(flag.CommandLine)
	RegisterTiming(flag.CommandLine)
	for _, name := range []string{"runs", "workers", "max-retries", "run-timeout", "min-runs", "fail-fast", "inject",
		"checkpoint", "resume", "cpuprofile", "memprofile", "timing-model", "timing-replay"} {
		if flag.CommandLine.Lookup(name) == nil {
			t.Errorf("flag -%s not registered on the default set", name)
		}
	}
	if got := flag.CommandLine.Lookup("runs").DefValue; got != "1" {
		t.Errorf("-runs default = %s, want the registered 1", got)
	}
}

// shortestUnit is the analysis unit that simulates fastest.
func shortestUnit() []workload.Workload {
	units := workload.AnalysisUnits()
	sort.Slice(units, func(i, j int) bool { return units[i].Duration() < units[j].Duration() })
	return units[:1]
}

// datasetBytes is every unit's JSON aggregates and trace CSV.
func datasetBytes(t *testing.T, ds *core.Dataset) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, u := range ds.Units {
		agg, err := json.Marshal(u.Agg)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(agg)
		if err := u.Trace.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestCollectCheckpointResume drives the front-end end to end on one short
// unit: a checkpointed collect writes the record log, and a -resume collect
// restores every pair from it without appending, returning the same bytes.
func TestCollectCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	collect := func(args ...string) *core.Dataset {
		t.Helper()
		c := parseCollection(t, append([]string{"-runs", "1", "-workers", "1", "-checkpoint", ckpt}, args...)...)
		ds, done, err := c.Collect(context.Background(), "test", sim.Config{}, shortestUnit())
		if err != nil {
			t.Fatalf("Collect(%v): %v", args, err)
		}
		if err := done(); err != nil {
			t.Fatalf("cleanup: %v", err)
		}
		return ds
	}
	first := collect()
	st, err := os.Stat(ckpt)
	if err != nil || st.Size() == 0 {
		t.Fatalf("checkpoint log after the first collect: %v, %v", st, err)
	}
	resumed := collect("-resume")
	if st2, err := os.Stat(ckpt); err != nil || st2.Size() != st.Size() {
		t.Fatalf("resume appended to a complete log: %d -> %v (%v)", st.Size(), st2, err)
	}
	if !bytes.Equal(datasetBytes(t, first), datasetBytes(t, resumed)) {
		t.Fatal("resumed dataset differs from the checkpointed one")
	}
}

// TestCollectRejectsBadFlagsBeforeSimulating: invalid flag combinations
// fail in Collect before the profiler starts or any simulation runs, so
// neither a profile nor a checkpoint log appears.
func TestCollectRejectsBadFlagsBeforeSimulating(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-resume"}, "-resume requires -checkpoint"},
		{[]string{"-checkpoint", filepath.Join(dir, "run.ckpt"), "-timing-replay", dir}, "-timing-replay requires -timing-model"},
		{[]string{"-checkpoint", filepath.Join(dir, "run.ckpt"), "-inject", "bogus=1"}, "bogus"},
	} {
		c := parseCollection(t, append([]string{"-cpuprofile", prof}, tc.args...)...)
		_, _, err := c.Collect(context.Background(), "test", sim.Config{}, shortestUnit())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Collect(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
		for _, f := range []string{prof, filepath.Join(dir, "run.ckpt")} {
			if _, err := os.Stat(f); !os.IsNotExist(err) {
				t.Fatalf("Collect(%v) left %s behind (%v)", tc.args, f, err)
			}
		}
	}
}
