package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/core"
)

// streamTestConfig keeps the sweep small (modest k range) so the
// differential tests stay fast.
func streamTestConfig() StreamConfig {
	return StreamConfig{Enabled: true, KMin: 2, KMax: 4, Workers: 1}
}

// streamRecords builds deterministic unassigned records around strongly
// asymmetric centers.
func streamRecords(n int) []core.StreamRecord {
	d := len(core.FeatureNames())
	centers := []float64{0, 7, 30, 90}
	state := uint64(0x2545f4914f6cdd1d)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24)
	}
	recs := make([]core.StreamRecord, n)
	for i := range recs {
		f := make([]float64, d)
		for j := range f {
			f[j] = centers[i%4] + next()
		}
		recs[i] = core.StreamRecord{
			Unit:       fmt.Sprintf("unit-%02d", i),
			RuntimeSec: 5 + float64(i),
			Features:   f,
		}
	}
	return recs
}

// withSeqs returns the records as the engine numbers them (1-based).
func withSeqs(recs []core.StreamRecord) []core.StreamRecord {
	out := append([]core.StreamRecord(nil), recs...)
	for i := range out {
		out[i].Seq = uint64(i + 1)
	}
	return out
}

func ingestRecord(t *testing.T, ts *httptest.Server, rec core.StreamRecord) (core.StreamDelta, *http.Response) {
	t.Helper()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var delta core.StreamDelta
	if resp.StatusCode == http.StatusAccepted {
		decodeBody(t, resp, &delta)
	}
	return delta, resp
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestStreamIngestLifecycle drives the ingest path end to end: every
// accepted record gets the next sequence number and a delta, the published
// state is byte-identical to a cold batch analysis of the same records,
// and the change log tails correctly from any cursor.
func TestStreamIngestLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Stream: streamTestConfig()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recs := streamRecords(8)
	for i, rec := range recs {
		delta, resp := ingestRecord(t, ts, rec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %d status = %d, want 202", i, resp.StatusCode)
		}
		if delta.Seq != uint64(i+1) || delta.Gen != i+1 {
			t.Fatalf("ingest %d delta = %+v, want seq %d gen %d", i, delta, i+1, i+1)
		}

		// The incremental state must match the cold batch analysis of the
		// records acked so far, byte for byte.
		batch, err := core.StreamBatch(context.Background(), withSeqs(recs[:i+1]), streamTestConfig().options())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.TrimSpace(getBody(t, ts.URL+"/v1/stream/state"))
		if got != string(want) {
			t.Fatalf("after record %d: /v1/stream/state diverges from batch\nstate: %s\nbatch: %s", i, got, want)
		}
	}

	// Tail the change log from the middle: exactly the deltas after the
	// cursor, in order.
	var tail streamChanges
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/stream/changes?since=5")), &tail); err != nil {
		t.Fatal(err)
	}
	if tail.Since != 5 || tail.LastSeq != 8 || len(tail.Changes) != 3 {
		t.Fatalf("changes since=5 = since %d last %d n %d, want 5, 8, 3", tail.Since, tail.LastSeq, len(tail.Changes))
	}
	for i, c := range tail.Changes {
		if c.Seq != uint64(6+i) {
			t.Fatalf("tailed change %d has seq %d, want %d", i, c.Seq, 6+i)
		}
	}

	// Client-supplied sequence numbers are refused: the stream owns them.
	bad := recs[0]
	bad.Seq = 99
	if _, resp := ingestRecord(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("client-set seq accepted with %d", resp.StatusCode)
	}
	// A malformed record is refused without consuming a sequence number.
	bad = recs[0]
	bad.Features = bad.Features[:2]
	if _, resp := ingestRecord(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed record accepted with %d", resp.StatusCode)
	}
	if delta, _ := ingestRecord(t, ts, core.StreamRecord{
		Unit: "unit-00", RuntimeSec: 5, Features: recs[0].Features,
	}); delta.Seq != 9 {
		t.Fatalf("next accepted record got seq %d, want 9 (rejections must not burn sequences)", delta.Seq)
	}
}

// TestStreamDisabledRoutesAbsent pins that a server without streaming
// exposes no /v1/stream surface.
func TestStreamDisabledRoutesAbsent(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stream/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled stream state = %d, want 404", resp.StatusCode)
	}
}

// TestStreamRestartReplaysLog is the crash-safety contract: every acked
// record is in the fsynced log, and a new process replays it into the
// bit-identical summary and change log, then continues the sequence.
func TestStreamRestartReplaysLog(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Stream: streamTestConfig()}

	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	recs := streamRecords(6)
	for _, rec := range recs {
		if _, resp := ingestRecord(t, ts, rec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	before := strings.TrimSpace(getBody(t, ts.URL+"/v1/stream/state"))
	changesBefore := strings.TrimSpace(getBody(t, ts.URL+"/v1/stream/changes"))
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every acked record is on disk, CRC-intact, with its assigned
	// sequence number — persist-before-accept leaves no gap for a crash.
	payloads, _, err := checkpoint.ReadLog(filepath.Join(dir, "stream.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != len(recs) {
		t.Fatalf("log holds %d records, want %d", len(payloads), len(recs))
	}
	for i, p := range payloads {
		var rec core.StreamRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != uint64(i+1) || rec.Unit != recs[i].Unit {
			t.Fatalf("log record %d = seq %d unit %s", i, rec.Seq, rec.Unit)
		}
	}

	s2 := newTestServer(t, cfg)
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if after := strings.TrimSpace(getBody(t, ts2.URL+"/v1/stream/state")); after != before {
		t.Fatalf("replayed state diverges:\nbefore: %s\nafter:  %s", before, after)
	}
	if after := strings.TrimSpace(getBody(t, ts2.URL+"/v1/stream/changes")); after != changesBefore {
		t.Fatalf("replayed change log diverges:\nbefore: %s\nafter:  %s", changesBefore, after)
	}
	// The sequence continues where the dead process stopped.
	delta, resp := ingestRecord(t, ts2, core.StreamRecord{
		Unit: "unit-99", RuntimeSec: 3, Features: recs[0].Features,
	})
	if resp.StatusCode != http.StatusAccepted || delta.Seq != 7 {
		t.Fatalf("post-restart ingest = status %d seq %d, want 202 seq 7", resp.StatusCode, delta.Seq)
	}
}

// TestStreamRestartTruncatesTornAppend reproduces the crash-mid-append
// sequence: the restart drops AND truncates the torn tail, so the next
// acked record is not appended onto the torn bytes — without the truncate,
// the merged line would silently lose that acked record (or corrupt the
// log) on the restart after it.
func TestStreamRestartTruncatesTornAppend(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Stream: streamTestConfig()}
	recs := streamRecords(3)

	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	for _, rec := range recs[:2] {
		if _, resp := ingestRecord(t, ts, rec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Crash mid-append: half a record, no trailing newline.
	logPath := filepath.Join(dir, "stream.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`deadbeef {"torn`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart, ingest one more record, restart again: the record was acked
	// and must survive the second restart.
	s2 := newTestServer(t, cfg)
	ts2 := httptest.NewServer(s2.Handler())
	delta, resp := ingestRecord(t, ts2, recs[2])
	if resp.StatusCode != http.StatusAccepted || delta.Seq != 3 {
		t.Fatalf("post-crash ingest = status %d seq %d, want 202 seq 3", resp.StatusCode, delta.Seq)
	}
	state := strings.TrimSpace(getBody(t, ts2.URL+"/v1/stream/state"))
	ts2.Close()
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s3 := newTestServer(t, cfg)
	defer s3.Shutdown(context.Background())
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	if after := strings.TrimSpace(getBody(t, ts3.URL+"/v1/stream/state")); after != state {
		t.Fatalf("record acked after torn-tail recovery lost on restart:\nbefore: %s\nafter:  %s", state, after)
	}
}

// TestStreamChangesSinceOverflow pins that a since cursor past 2^63 clamps
// to the tail instead of panicking the handler through a negative slice
// index.
func TestStreamChangesSinceOverflow(t *testing.T) {
	s := newTestServer(t, Config{Stream: streamTestConfig()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, rec := range streamRecords(2) {
		if _, resp := ingestRecord(t, ts, rec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	var tail streamChanges
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/stream/changes?since=9223372036854775808")), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Changes) != 0 || tail.LastSeq != 2 {
		t.Fatalf("overflowing since = %d changes, last %d; want 0 changes, last 2", len(tail.Changes), tail.LastSeq)
	}
}

// TestStreamReportJobMatchesState pins the two analysis paths against each
// other through the public API: a streamreport job — the batch pipeline,
// run through the queue and the content-addressed cache — produces exactly
// the bytes the incremental state serves, and a later ingest moves the
// cache key so stale bytes can never be served for the grown stream.
func TestStreamReportJobMatchesState(t *testing.T) {
	s := newTestServer(t, Config{Stream: streamTestConfig(), CacheDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recs := streamRecords(8)
	for _, rec := range recs {
		if _, resp := ingestRecord(t, ts, rec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	state := strings.TrimSpace(getBody(t, ts.URL+"/v1/stream/state"))

	report := func() Job {
		resp, err := http.Post(ts.URL+"/v1/stream/report", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var acc struct{ ID string }
		decodeBody(t, resp, &acc)
		if resp.StatusCode != http.StatusAccepted || acc.ID == "" {
			t.Fatalf("report submit = %d %+v", resp.StatusCode, acc)
		}
		return waitStatus(t, s, acc.ID, StatusDone, 30*time.Second)
	}

	job := report()
	if string(job.Result) != state {
		t.Fatalf("streamreport result diverges from incremental state\njob:   %s\nstate: %s", job.Result, state)
	}
	if job.Cached {
		t.Fatal("first report was served from the cache")
	}

	// An identical stream addresses the identical cache entry.
	if job2 := report(); !job2.Cached || string(job2.Result) != state {
		t.Fatalf("repeat report: cached=%v", job2.Cached)
	}

	// Growing the stream moves the dataset generation and therefore the
	// key: the next report re-executes and matches the new state.
	if _, resp := ingestRecord(t, ts, core.StreamRecord{
		Unit: "unit-99", RuntimeSec: 2, Features: recs[2].Features,
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	state2 := strings.TrimSpace(getBody(t, ts.URL+"/v1/stream/state"))
	job3 := report()
	if job3.Cached {
		t.Fatal("report after a new record was served from the stale cache entry")
	}
	if string(job3.Result) != state2 || state2 == state {
		t.Fatalf("post-ingest report diverges from state\njob:   %s\nstate: %s", job3.Result, state2)
	}
}

// TestStreamSpecValidationAndKeys covers the streamreport spec surface:
// admission rejections and the cache key's dataset-generation rule.
func TestStreamSpecValidationAndKeys(t *testing.T) {
	recs := withSeqs(streamRecords(4))
	if err := (Spec{Kind: "streamreport"}).Validate(); err == nil {
		t.Fatal("empty streamreport accepted")
	}
	bad := append([]core.StreamRecord(nil), recs...)
	bad[1].Features = nil
	if err := (Spec{Kind: "streamreport", StreamRecords: bad}).Validate(); err == nil {
		t.Fatal("malformed record accepted")
	}
	if err := (Spec{Kind: "streamreport", StreamRecords: recs, StreamKMin: 1}).Validate(); err == nil {
		t.Fatal("kMin 1 accepted")
	}
	good := Spec{Kind: "streamreport", StreamRecords: recs}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid streamreport rejected: %v", err)
	}

	key := func(sp Spec) string {
		t.Helper()
		k, err := sp.CacheKey("")
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(good)
	// The records are the dataset: one more record, one changed feature or
	// a different sweep range must all move the key.
	grown := good
	grown.StreamRecords = withSeqs(streamRecords(5))
	if key(grown) == base {
		t.Fatal("cache key ignores the record count")
	}
	mutated := good
	mutated.StreamRecords = withSeqs(streamRecords(4))
	mutated.StreamRecords[3].Features[0] += 0.5
	if key(mutated) == base {
		t.Fatal("cache key ignores record bytes")
	}
	ranged := good
	ranged.StreamKMax = 5
	if key(ranged) == base {
		t.Fatal("cache key ignores the sweep range")
	}
	// Defaults and their explicit spellings address the same entry.
	explicit := good
	explicit.StreamKMin, explicit.StreamKMax = 2, 9
	if key(explicit) != base {
		t.Fatal("explicit default sweep range addresses a different entry")
	}
	// Execution-only knobs never move the key.
	workers := good
	workers.Workers = 7
	if key(workers) != base {
		t.Fatal("cache key depends on Workers")
	}
}

// readJSON GETs url and decodes its 200 body into v; safe off the test
// goroutine.
func readJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s = %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestStreamReadsDoNotTakeIngestLock pins that the state and change-log
// reads are served from the published snapshot: both complete while the
// ingest mutex — which an ingest holds across its fsync and fold — is held.
func TestStreamReadsDoNotTakeIngestLock(t *testing.T) {
	s := newTestServer(t, Config{Stream: streamTestConfig()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, rec := range streamRecords(3) {
		if _, resp := ingestRecord(t, ts, rec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}

	s.stream.mu.Lock()
	defer s.stream.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		var sum core.Summary
		if err := readJSON(ts.URL+"/v1/stream/state", &sum); err != nil {
			done <- err
			return
		}
		var tail streamChanges
		if err := readJSON(ts.URL+"/v1/stream/changes", &tail); err != nil {
			done <- err
			return
		}
		if sum.LastSeq != 3 || tail.LastSeq != 3 || len(tail.Changes) != 3 {
			done <- fmt.Errorf("read state last_seq %d, changes last_seq %d with %d changes; want 3, 3, 3",
				sum.LastSeq, tail.LastSeq, len(tail.Changes))
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream reads blocked on the ingest mutex")
	}
}

// TestStreamReadsSeeEveryAck runs readers against a live ingest: once an
// ingest is acked, no later read — of the state or of the change log — may
// report a last_seq below it, and each change-log read is one consistent
// snapshot (its changes run exactly 1..last_seq). Run it under -race.
func TestStreamReadsSeeEveryAck(t *testing.T) {
	s := newTestServer(t, Config{Stream: streamTestConfig()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const readers = 2
	var acked atomic.Uint64
	stop := make(chan struct{})
	errs := make(chan error, readers) // each reader sends exactly once
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				floor := acked.Load()
				var sum core.Summary
				if err := readJSON(ts.URL+"/v1/stream/state", &sum); err != nil {
					errs <- err
					return
				}
				if sum.LastSeq < floor {
					errs <- fmt.Errorf("state last_seq %d after seq %d was acked", sum.LastSeq, floor)
					return
				}
				var tail streamChanges
				if err := readJSON(ts.URL+"/v1/stream/changes", &tail); err != nil {
					errs <- err
					return
				}
				if tail.LastSeq < floor {
					errs <- fmt.Errorf("changes last_seq %d after seq %d was acked", tail.LastSeq, floor)
					return
				}
				if uint64(len(tail.Changes)) != tail.LastSeq {
					errs <- fmt.Errorf("changes last_seq %d with %d changes", tail.LastSeq, len(tail.Changes))
					return
				}
				for i, c := range tail.Changes {
					if c.Seq != uint64(i+1) {
						errs <- fmt.Errorf("change %d has seq %d", i, c.Seq)
						return
					}
				}
			}
		}()
	}

	for i, rec := range streamRecords(16) {
		delta, resp := ingestRecord(t, ts, rec)
		if resp.StatusCode != http.StatusAccepted || delta.Seq != uint64(i+1) {
			close(stop)
			wg.Wait()
			t.Fatalf("ingest %d = status %d seq %d", i, resp.StatusCode, delta.Seq)
		}
		acked.Store(delta.Seq)
	}
	close(stop)
	wg.Wait()
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
