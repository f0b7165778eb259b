package cosim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobilebench/internal/cosim"
	"mobilebench/internal/fault"
	"mobilebench/internal/mem"
	"mobilebench/internal/soc"
	"mobilebench/internal/wire"
)

// TestMain doubles as the external timing-model child: when re-exec'd with
// MBCOSIM_CHILD=1 the test binary serves the cosim protocol on its
// stdin/stdout instead of running tests — the same re-exec pattern real
// deployments use with cmd/mbtiming, but available under -race and without
// building a second binary.
func TestMain(m *testing.M) {
	if os.Getenv("MBCOSIM_CHILD") == "overlong" {
		os.Exit(serveOverlong())
	}
	if os.Getenv("MBCOSIM_CHILD") == "1" {
		chaos, err := fault.ParseCosim(os.Getenv("MBCOSIM_CHAOS"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cosim child:", err)
			os.Exit(2)
		}
		err = cosim.Serve(os.Stdin, os.Stdout, cosim.ServeOptions{
			Model: os.Getenv("MBCOSIM_MODEL"),
			Chaos: chaos,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cosim child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serveOverlong is a live child that welcomes, then answers every batch
// with a line twice the frame bound, and keeps reading until stdin closes.
func serveOverlong() int {
	stream := wire.NewStream[cosim.Frame](os.Stdin, os.Stdout, cosim.MaxFrameBytes)
	if _, err := stream.Next(); err != nil {
		return 1
	}
	if stream.Send(cosim.Frame{Type: cosim.TypeWelcome, Proto: cosim.ProtoVersion, Model: cosim.ModelAnalytic, Exact: true}) != nil {
		return 1
	}
	line := append(bytes.Repeat([]byte("x"), 2*cosim.MaxFrameBytes), '\n')
	for {
		if _, err := stream.Next(); err != nil {
			return 0
		}
		if _, err := os.Stdout.Write(line); err != nil {
			return 1
		}
	}
}

// childConfig builds a supervisor config that re-execs this test binary as
// the child, with fast backoff so chaos tests stay quick.
func childConfig(model, chaos string) cosim.Config {
	p := soc.Snapdragon888HDK()
	env := []string{"MBCOSIM_CHILD=1"}
	if model != "" {
		env = append(env, "MBCOSIM_MODEL="+model)
	}
	if chaos != "" {
		env = append(env, "MBCOSIM_CHAOS="+chaos)
	}
	return cosim.Config{
		Command:     []string{os.Args[0]},
		Env:         env,
		MemHW:       p.Memory,
		StorHW:      p.Storage,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
	}
}

func newSupervisor(t *testing.T, cfg cosim.Config) *cosim.Supervisor {
	t.Helper()
	sup, err := cosim.NewSupervisor(cfg)
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	t.Cleanup(func() { sup.Close() })
	return sup
}

// distinctQueries returns n distinct single-query batches with their
// expected analytic replies.
func distinctQueries(n int) ([]cosim.Query, []mem.IOResult) {
	p := soc.Snapdragon888HDK()
	queries := make([]cosim.Query, n)
	want := make([]mem.IOResult, n)
	for i := range queries {
		d := mem.IODemand{SeqReadMBs: float64(100 + i)}
		queries[i] = cosim.Query{Kind: cosim.KindIO, DT: 0.1, IO: &d}
		want[i] = mem.ServiceIO(p.Storage, d, 0.1)
	}
	return queries, want
}

// exchangeOne asks one query and asserts the reply matches the in-process
// analytic math.
func exchangeOne(t *testing.T, sup *cosim.Supervisor, q cosim.Query, want mem.IOResult) cosim.ExchangeInfo {
	t.Helper()
	reps, info, err := sup.Exchange([]cosim.Query{q})
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if len(reps) != 1 || reps[0].IO == nil {
		t.Fatalf("replies = %+v", reps)
	}
	if !reflect.DeepEqual(*reps[0].IO, want) {
		t.Fatalf("reply drifted from the analytic math:\n got %+v\nwant %+v", *reps[0].IO, want)
	}
	return info
}

// TestSupervisorCleanExchange: a healthy child answers with the exact
// analytic bytes and no supervision events.
func TestSupervisorCleanExchange(t *testing.T) {
	sup := newSupervisor(t, childConfig("", ""))
	if sup.Model() != cosim.ModelAnalytic || !sup.Exact() {
		t.Fatalf("handshake: model %q exact %v", sup.Model(), sup.Exact())
	}
	qs, want := distinctQueries(3)
	for i, q := range qs {
		info := exchangeOne(t, sup, q, want[i])
		if len(info.Notes) != 0 || info.Degraded {
			t.Fatalf("clean exchange reported events: %+v", info)
		}
	}
	if sup.Degraded() {
		t.Fatal("healthy supervisor reports degraded")
	}
}

// TestSupervisorCrashRestart: a child killed mid-run is restarted and the
// lost batch re-asked — same bytes, one restart note, no degradation.
func TestSupervisorCrashRestart(t *testing.T) {
	sup := newSupervisor(t, childConfig("", "kill_batch=2"))
	qs, want := distinctQueries(3)
	exchangeOne(t, sup, qs[0], want[0])
	// Batch 2 kills the child; the supervisor must restart and recover.
	info := exchangeOne(t, sup, qs[1], want[1])
	if !notesContain(info.Notes, "restarted") {
		t.Fatalf("no restart note after a crash: %+v", info.Notes)
	}
	if info.Degraded {
		t.Fatal("one crash degraded the supervisor")
	}
	// The replacement child counts its own batches: its batch 2 dies too,
	// proving restarts are not a one-shot.
	info = exchangeOne(t, sup, qs[2], want[2])
	if !notesContain(info.Notes, "restarted") {
		t.Fatalf("no restart note after the second crash: %+v", info.Notes)
	}
	if sup.Degraded() {
		t.Fatal("supervisor degraded despite strikes below the budget... MaxStrikes misconfigured?")
	}
}

// TestSupervisorHangStrike: a hung child trips the per-query deadline, is
// killed and replaced.
func TestSupervisorHangStrike(t *testing.T) {
	cfg := childConfig("", "hang_batch=2,hang_sec=30")
	cfg.QueryTimeout = 100 * time.Millisecond
	cfg.MaxStrikes = 5
	sup := newSupervisor(t, cfg)
	qs, want := distinctQueries(2)
	exchangeOne(t, sup, qs[0], want[0])
	start := time.Now()
	info := exchangeOne(t, sup, qs[1], want[1])
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang recovery took %v — the deadline did not fire", elapsed)
	}
	if !notesContain(info.Notes, "hang") {
		t.Fatalf("no hang strike note: %+v", info.Notes)
	}
	if sup.Degraded() {
		t.Fatal("one hang degraded the supervisor")
	}
}

// TestSupervisorGarbageStrike: an unparsable frame is a strike, not a
// panic, and the replacement child answers the re-ask.
func TestSupervisorGarbageStrike(t *testing.T) {
	cfg := childConfig("", "garbage_batch=2")
	cfg.MaxStrikes = 5
	sup := newSupervisor(t, cfg)
	qs, want := distinctQueries(2)
	exchangeOne(t, sup, qs[0], want[0])
	info := exchangeOne(t, sup, qs[1], want[1])
	if !notesContain(info.Notes, "strike") {
		t.Fatalf("no strike note after garbage: %+v", info.Notes)
	}
	if sup.Degraded() {
		t.Fatal("one garbage frame degraded the supervisor")
	}
}

// TestSupervisorOverlongLineStrike: a live child writing a line over the
// frame bound is struck for a protocol error, not reported as exited.
func TestSupervisorOverlongLineStrike(t *testing.T) {
	cfg := childConfig("", "")
	cfg.Env = []string{"MBCOSIM_CHILD=overlong"}
	cfg.MaxStrikes = 1
	sup := newSupervisor(t, cfg)
	qs, want := distinctQueries(1)
	info := exchangeOne(t, sup, qs[0], want[0])
	if !notesContain(info.Notes, "exceeds the") || notesContain(info.Notes, "EOF") {
		t.Fatalf("overlong line not struck as a protocol error: %+v", info.Notes)
	}
}

// TestSupervisorCloseDuringBackoff: Close ends a restart backoff in
// progress; Exchange returns promptly and no child is spawned after
// shutdown.
func TestSupervisorCloseDuringBackoff(t *testing.T) {
	spawnFile := filepath.Join(t.TempDir(), "spawns")
	cfg := childConfig("", "kill_batch=2,spawn_file="+spawnFile)
	cfg.BackoffBase = time.Minute
	cfg.BackoffCap = time.Minute
	sup := newSupervisor(t, cfg)
	qs, want := distinctQueries(2)
	exchangeOne(t, sup, qs[0], want[0])
	errc := make(chan error, 1)
	go func() {
		_, _, err := sup.Exchange(qs[1:])
		errc <- err
	}()
	// Batch 2 kills the child, so the exchange enters its 30-90 s restart
	// backoff within milliseconds. The pause makes Close land inside that
	// backoff; the assertions hold wherever it lands.
	time.Sleep(500 * time.Millisecond)
	start := time.Now()
	sup.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Exchange on a closed supervisor succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Exchange still waiting out its restart backoff after Close")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v to end the exchange", d)
	}
	data, err := os.ReadFile(spawnFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "1" {
		t.Fatalf("spawn counter = %s after Close, want 1 (a child was started after shutdown)", got)
	}
}

// TestSupervisorSlowReplyWithinDeadline: a slow but in-deadline reply is
// not a fault.
func TestSupervisorSlowReplyWithinDeadline(t *testing.T) {
	cfg := childConfig("", "slow_batch=1,slow_sec=0.05")
	cfg.QueryTimeout = 2 * time.Second
	sup := newSupervisor(t, cfg)
	qs, want := distinctQueries(1)
	info := exchangeOne(t, sup, qs[0], want[0])
	if len(info.Notes) != 0 {
		t.Fatalf("in-deadline slow reply reported events: %+v", info.Notes)
	}
}

// TestSupervisorSlowReplySkew: a reply slower than the deadline is
// indistinguishable from a hang and handled the same way.
func TestSupervisorSlowReplySkew(t *testing.T) {
	cfg := childConfig("", "slow_batch=2,slow_sec=30")
	cfg.QueryTimeout = 100 * time.Millisecond
	cfg.MaxStrikes = 5
	sup := newSupervisor(t, cfg)
	qs, want := distinctQueries(2)
	exchangeOne(t, sup, qs[0], want[0])
	info := exchangeOne(t, sup, qs[1], want[1])
	if !notesContain(info.Notes, "strike") {
		t.Fatalf("no strike after an over-deadline reply: %+v", info.Notes)
	}
}

// TestSupervisorCircuitBreaks: a child that dies on every batch exhausts
// the strike budget; the circuit opens and the in-process fallback answers
// with the same bytes.
func TestSupervisorCircuitBreaks(t *testing.T) {
	cfg := childConfig("", "kill_every=1")
	cfg.MaxStrikes = 3
	sup := newSupervisor(t, cfg)
	qs, want := distinctQueries(2)
	info := exchangeOne(t, sup, qs[0], want[0])
	if !info.Degraded {
		t.Fatalf("exchange against an always-dying child not degraded: %+v", info)
	}
	if !notesContain(info.Notes, "circuit opened") {
		t.Fatalf("no circuit note: %+v", info.Notes)
	}
	if !sup.Degraded() {
		t.Fatal("supervisor does not report the open circuit")
	}
	// Further exchanges answer directly from the fallback — degraded, but
	// without re-spawning (no new notes beyond the degradation itself).
	info = exchangeOne(t, sup, qs[1], want[1])
	if !info.Degraded || len(info.Notes) != 0 {
		t.Fatalf("post-break exchange: %+v", info)
	}
}

// TestSupervisorVersionSkewAtStart: a child speaking another protocol
// version fails construction loudly — at CLI time, not mid-collection.
func TestSupervisorVersionSkewAtStart(t *testing.T) {
	_, err := cosim.NewSupervisor(childConfig("", "skew_version=true"))
	if err == nil {
		t.Fatal("NewSupervisor accepted a version-skewed child")
	}
	if _, ok := err.(*cosim.SkewError); !ok {
		t.Fatalf("error is %T (%v), want *SkewError", err, err)
	}
}

// TestSupervisorVersionSkewOnRestart: a child that crashes and comes back
// speaking a different protocol (binary upgraded under us) opens the
// circuit permanently without burning through strikes.
func TestSupervisorVersionSkewOnRestart(t *testing.T) {
	spawnFile := filepath.Join(t.TempDir(), "spawns")
	cfg := childConfig("", "kill_batch=2,skew_after_spawns=1,spawn_file="+spawnFile)
	cfg.MaxStrikes = 100 // the skew must not need the strike budget
	sup := newSupervisor(t, cfg)
	qs, want := distinctQueries(2)
	info := exchangeOne(t, sup, qs[0], want[0])
	if info.Degraded {
		t.Fatal("first exchange degraded")
	}
	// Batch 2 kills the child; the respawned child (spawn 2) welcomes with
	// a skewed version, which must open the circuit immediately.
	info = exchangeOne(t, sup, qs[1], want[1])
	if !info.Degraded {
		t.Fatalf("skewed restart did not degrade: %+v", info)
	}
	if !notesContain(info.Notes, "circuit opened") {
		t.Fatalf("no circuit note: %+v", info.Notes)
	}
	if !sup.Degraded() {
		t.Fatal("supervisor does not report the open circuit")
	}
}

// TestSupervisorReplayLogReuse: replies logged in one supervisor's life
// are served from the log by the next — even to a child that would
// misbehave — so resumed runs never depend on the child's health for
// already-answered queries.
func TestSupervisorReplayLogReuse(t *testing.T) {
	replay := filepath.Join(t.TempDir(), "replay.log")
	qs, want := distinctQueries(4)

	cfg := childConfig("", "")
	cfg.ReplayPath = replay
	sup := newSupervisor(t, cfg)
	for i, q := range qs {
		exchangeOne(t, sup, q, want[i])
	}
	if err := sup.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A second supervisor over the same log, with a child that answers
	// every batch with garbage and a one-strike budget: any query actually
	// reaching the child would open the circuit. All four must replay.
	cfg2 := childConfig("", "garbage_batch=1")
	cfg2.ReplayPath = replay
	cfg2.MaxStrikes = 1
	sup2 := newSupervisor(t, cfg2)
	for i, q := range qs {
		info := exchangeOne(t, sup2, q, want[i])
		if info.Degraded || len(info.Notes) != 0 {
			t.Fatalf("query %d was not served from the replay log: %+v", i, info)
		}
	}
	if sup2.Degraded() {
		t.Fatal("replayed exchanges opened the circuit")
	}
}

// TestSupervisorReplayKeepsDegradedProvenance: replies computed by the
// circuit-break fallback are logged with their degraded marker, and a later
// supervisor replaying them — even one whose own child is perfectly healthy
// and whose circuit never opens — reports the replayed data as degraded.
// Without this, a resumed run under a non-exact model would carry
// analytic-fallback bytes while its provenance claimed a healthy child.
func TestSupervisorReplayKeepsDegradedProvenance(t *testing.T) {
	replay := filepath.Join(t.TempDir(), "replay.log")
	qs, want := distinctQueries(2)

	// First life: every batch kills the child, the circuit opens, and the
	// fallback's replies land in the log.
	cfg := childConfig("", "kill_every=1")
	cfg.ReplayPath = replay
	cfg.MaxStrikes = 1
	sup := newSupervisor(t, cfg)
	info := exchangeOne(t, sup, qs[0], want[0])
	if !info.Degraded {
		t.Fatalf("fallback exchange not degraded: %+v", info)
	}
	if err := sup.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Second life: healthy child, same log. The logged query must replay
	// with its degraded provenance intact; a fresh query answered by the
	// live child must stay clean.
	cfg2 := childConfig("", "")
	cfg2.ReplayPath = replay
	sup2 := newSupervisor(t, cfg2)
	info = exchangeOne(t, sup2, qs[0], want[0])
	if !info.Degraded {
		t.Fatal("replayed fallback reply lost its degraded provenance")
	}
	if sup2.Degraded() {
		t.Fatal("replaying a degraded reply must not open the healthy supervisor's circuit")
	}
	info = exchangeOne(t, sup2, qs[1], want[1])
	if info.Degraded || len(info.Notes) != 0 {
		t.Fatalf("fresh child-answered exchange reported events: %+v", info)
	}
}

// TestProviderPlatformMismatch: a session for different hardware than the
// handshake pinned is refused.
func TestProviderPlatformMismatch(t *testing.T) {
	p, err := cosim.NewSupervisor(childConfig("", ""))
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	defer p.Close()
	if fp := p.Fingerprint(); fp != "" {
		t.Fatalf("exact analytic child fingerprints as %q, want \"\"", fp)
	}
	plat := soc.Snapdragon888HDK()
	other := plat.Memory
	other.TotalMB += 1024
	if _, err := p.NewTimingModel(other, plat.Storage); err == nil {
		t.Fatal("NewTimingModel accepted mismatched hardware")
	}
}

func notesContain(notes []string, substr string) bool {
	for _, n := range notes {
		if strings.Contains(n, substr) {
			return true
		}
	}
	return false
}
