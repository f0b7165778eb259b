package main

// stream-ingest: an in-process server with the streaming ingest path on,
// booted from a generator-written stream log. A closed-loop writer posts
// one seeded record at a time to /v1/stream and waits for its ack; beside
// it a reader polls /v1/stream/state and /v1/stream/changes, so reads are
// timed while writes are in flight.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/core"
	"mobilebench/internal/server"
)

const (
	// memAcks is the ack count at which the live heap is measured: the
	// server keeps every record and delta, so its heap grows with the
	// ingests done, and a fixed count keeps the figure independent of
	// throughput.
	memAcks       = 150
	streamBoots   = 3
	readerPause   = 10 * time.Millisecond
	streamWorkers = 2
)

// streamConfig runs the stream in exact mode (mbserved -stream-exact):
// only there is the published state unconditionally byte-identical to
// core.StreamBatch, the check this workload makes. The default warm mode
// may settle a cell in another local optimum (see cluster.SweepOptions);
// the traced run measures it on a replica instead.
func streamConfig(dir string) server.Config {
	return server.Config{StateDir: dir, Stream: server.StreamConfig{Enabled: true, Workers: streamWorkers, Exact: true}}
}

// writeLogDir creates dir and writes recs as its stream log, exactly as the
// server persists them.
func writeLogDir(dir string, recs []core.StreamRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lg, err := checkpoint.OpenLog(filepath.Join(dir, "stream.log"))
	if err != nil {
		return err
	}
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			_ = lg.Close()
			return err
		}
		if err := lg.Append(payload); err != nil {
			_ = lg.Close()
			return err
		}
	}
	return lg.Close()
}

// ack is one acknowledged ingest.
type ack struct {
	rec   core.StreamRecord // with the sequence number the server assigned
	delta core.StreamDelta
}

// ingestPhase is what one writer/reader phase observed.
type ingestPhase struct {
	ingests, stateReads, changeReads Latencies
	acks                             []ack
	attempted, failed                int
	liveMB                           float64 // live heap at memAcks acks, 0 if not reached or not asked
}

// runIngestPhase drives the writer and the reader for d, measuring the live
// heap once the phase has memAcks acks when measureMem is set.
func runIngestPhase(ctx context.Context, s *served, gen *recordGen, d time.Duration, measureMem bool) *ingestPhase {
	ph := &ingestPhase{}
	var mu sync.Mutex // guards ph against the reader
	// gate is held by the reader across each poll, so the writer can
	// measure the heap with no read in flight.
	var gate sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		since := uint64(0)
		for {
			select {
			case <-stop:
				return
			case <-time.After(readerPause):
			}
			gate.Lock()
			t := time.Now()
			status, _, err := s.do(ctx, http.MethodGet, "/v1/stream/state", nil)
			stateD := time.Since(t)
			t = time.Now()
			cstatus, body, cerr := s.do(ctx, http.MethodGet, "/v1/stream/changes?since="+strconv.FormatUint(since, 10), nil)
			changesD := time.Since(t)
			var ch struct {
				LastSeq uint64 `json:"last_seq"`
			}
			if cerr == nil && cstatus == http.StatusOK {
				cerr = json.Unmarshal(body, &ch)
			}
			mu.Lock()
			ph.attempted += 2
			if err != nil || status != http.StatusOK {
				ph.failed++
				ph.stateReads.AddFailed()
			} else {
				ph.stateReads.Add(stateD)
			}
			if cerr != nil || cstatus != http.StatusOK {
				ph.failed++
				ph.changeReads.AddFailed()
			} else {
				ph.changeReads.Add(changesD)
				since = ch.LastSeq
			}
			mu.Unlock()
			gate.Unlock()
		}
	}()

	start := time.Now()
	for time.Since(start) < d {
		rec := gen.next()
		body, err := json.Marshal(rec)
		if err != nil {
			panic(err) // a generated record always marshals
		}
		t := time.Now()
		status, resp, err := s.do(ctx, http.MethodPost, "/v1/stream", body)
		lat := time.Since(t)
		var delta core.StreamDelta
		if err == nil && status == http.StatusAccepted {
			err = json.Unmarshal(resp, &delta)
		} else if err == nil {
			err = fmt.Errorf("ingest answered %d: %s", status, resp)
		}
		mu.Lock()
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.ingests.AddFailed()
		} else {
			ph.ingests.Add(lat)
			rec.Seq = delta.Seq
			ph.acks = append(ph.acks, ack{rec: rec, delta: delta})
		}
		acked := len(ph.acks)
		mu.Unlock()
		if measureMem && acked == memAcks && ph.liveMB == 0 {
			gate.Lock()
			ph.liveMB = liveHeapMB()
			gate.Unlock()
		}
	}
	close(stop)
	wg.Wait()
	return ph
}

func runStreamIngest(ctx context.Context, o runOpts) (*Report, error) {
	rep := newReport()
	prefix := prefixRecords(o.seed)
	// Set-up is a server boot that replays the generator-written prefix
	// log, up to its first ready answer; the last boot serves the run.
	var boots []float64
	var s *served
	for i := 0; i < streamBoots; i++ {
		dir := filepath.Join(o.work, fmt.Sprintf("boot%d", i))
		if err := writeLogDir(dir, prefix); err != nil {
			return nil, err
		}
		b, d, err := boot(ctx, streamConfig(dir))
		if err != nil {
			return nil, err
		}
		boots = append(boots, d.Seconds())
		if i == streamBoots-1 {
			s = b
			break
		}
		if err := b.close(ctx); err != nil {
			return nil, err
		}
	}
	rep.EndToEnd["setup_s"] = median(boots)

	gen := newRecordGen(o.seed, streamRecords)
	var phases []*ingestPhase
	var total Ledger
	start := time.Now()
	if o.traced {
		// Unprofiled, then profiled: the difference is the tracing overhead.
		phases = append(phases, runIngestPhase(ctx, s, gen, o.seconds*35/100, false))
		led, err := startLedger()
		if err != nil {
			_ = s.close(ctx)
			return nil, err
		}
		phases = append(phases, runIngestPhase(ctx, s, gen, o.seconds*35/100, false))
		if err := led.stop(&total); err != nil {
			_ = s.close(ctx)
			return nil, err
		}
	} else {
		phases = append(phases, runIngestPhase(ctx, s, gen, o.seconds, true))
	}
	window := time.Since(start).Seconds()
	rep.EndToEnd["mem_live_mb"] = phases[0].liveMB
	if phases[0].liveMB == 0 {
		rep.EndToEnd["mem_live_mb"] = liveHeapMB()
	}

	var all, reads, states, changes Latencies
	var acks []ack
	for _, ph := range phases {
		all.Merge(&ph.ingests)
		states.Merge(&ph.stateReads)
		changes.Merge(&ph.changeReads)
		acks = append(acks, ph.acks...)
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
	}
	reads.Merge(&states)
	reads.Merge(&changes)

	// The incrementally maintained state must equal the cold batch
	// analysis of every record the stream acked, byte for byte.
	records := append([]core.StreamRecord(nil), prefix...)
	for i, a := range acks {
		if want := uint64(len(prefix) + i + 1); a.rec.Seq != want {
			rep.fail("ack %d carries seq %d, want %d", i, a.rec.Seq, want)
		}
		records = append(records, a.rec)
	}
	status, got, err := s.do(ctx, http.MethodGet, "/v1/stream/state", nil)
	if cerr := s.close(ctx); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("reading the final stream state (%d): %v", status, err)
	}
	batch, err := core.StreamBatch(ctx, records, streamOptions())
	if err != nil {
		return nil, fmt.Errorf("batch comparator: %w", err)
	}
	want, err := json.Marshal(batch)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
		rep.fail("final /v1/stream/state (%d bytes) differs from core.StreamBatch over the %d acked records (%d bytes)", len(got), len(records), len(want))
	}

	modes := make(map[string]int)
	for _, a := range acks {
		modes[a.delta.Mode]++
	}
	rep.setOps(&all, window, msOf(requestTimeout))
	rep.noteQuantiles("ingest", &all)
	rep.noteQuantiles("read", &reads)
	rep.note("ingest_per_s %.4f 1/s  fail_frac %.6f  (%d ops attempted, %d failed)",
		rep.EndToEnd["ops_per_s"], float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Attempted, rep.Failed)
	rep.note("refresh modes over %d acks: append %d, update %d, rebuild %d, unchanged %d",
		len(acks), modes[core.StreamModeAppend], modes[core.StreamModeUpdate], modes[core.StreamModeRebuild], modes[core.StreamModeUnchanged])
	if !o.traced {
		return rep, nil
	}

	total.metrics(rep.Layer, 1)
	total.check(rep)
	m := rep.Layer
	m["core.mode_append"] = float64(modes[core.StreamModeAppend])
	m["core.mode_update"] = float64(modes[core.StreamModeUpdate])
	m["core.mode_rebuild"] = float64(modes[core.StreamModeRebuild])
	m["core.mode_unchanged"] = float64(modes[core.StreamModeUnchanged])
	m["server.state_read_ms"] = medianOr0(&states)
	m["server.changes_read_ms"] = medianOr0(&changes)
	untraced, traced := phases[0].ingests.Quantile(0.5).Value, phases[1].ingests.Quantile(0.5).Value
	m["trace.ingest_p50_ms"] = traced
	m["trace.ingest_p50_delta_ms"] = traced - untraced
	rep.note("ingest_p50_ms %.4f ms profiled, %.4f ms unprofiled", traced, untraced)
	budget := o.seconds * 30 / 100
	if err := probeIngest(ctx, o.work, prefix, acks, budget, m, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// probeIngest replays the run's ingests outside the server, timing the
// calls each one makes: the fsynced log append and the fold into a replica
// core.StreamState, grouped by the refresh mode the fold chose. The replica
// runs the served exact mode and must choose the mode the server acked. A
// second replica folds the same records in the default warm mode, for its
// fold cost, its warm-start acceptance and how often its published state
// differs from the exact one. Before that it times the boot replay of the
// prefix (read the log, fold every record).
func probeIngest(ctx context.Context, work string, prefix []core.StreamRecord, acks []ack, budget time.Duration, m map[string]float64, rep *Report) error {
	dir := filepath.Join(work, "ingest-probe")
	if err := writeLogDir(dir, prefix); err != nil {
		return err
	}
	exact := core.NewStreamState(streamOptions())
	warmOpts := streamOptions()
	warmOpts.Exact = false
	warm := core.NewStreamState(warmOpts)
	t := time.Now()
	payloads, _, err := checkpoint.ReadLog(filepath.Join(dir, "stream.log"))
	if err != nil {
		return err
	}
	for _, p := range payloads {
		var rec core.StreamRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return err
		}
		if _, err := exact.Ingest(ctx, rec); err != nil {
			return fmt.Errorf("replaying the prefix: %w", err)
		}
	}
	m["server.replay_s"] = time.Since(t).Seconds()
	for _, rec := range prefix {
		if _, err := warm.Ingest(ctx, rec); err != nil {
			return fmt.Errorf("warm replica: %w", err)
		}
	}

	lg, err := checkpoint.OpenLog(filepath.Join(dir, "stream.log"))
	if err != nil {
		return err
	}
	defer lg.Close()
	var appendT, warmT Latencies
	folds := make(map[string]*Latencies)
	cells, warmCells, shifted, refreshed, diverged := 0, 0, 0, 0, 0
	start := time.Now()
	for _, a := range acks {
		if time.Since(start) > budget {
			break
		}
		payload, err := json.Marshal(a.rec)
		if err != nil {
			return err
		}
		t := time.Now()
		if err := lg.Append(payload); err != nil {
			return fmt.Errorf("log append: %w", err)
		}
		appendT.Add(time.Since(t))
		t = time.Now()
		delta, err := exact.Ingest(ctx, a.rec)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("replica fold: %w", err)
		}
		if delta.Mode != a.delta.Mode {
			rep.fail("replica folded seq %d as %s, the server acked %s", a.rec.Seq, delta.Mode, a.delta.Mode)
		}
		if folds[delta.Mode] == nil {
			folds[delta.Mode] = &Latencies{}
		}
		folds[delta.Mode].Add(d)

		t = time.Now()
		wd, err := warm.Ingest(ctx, a.rec)
		warmT.Add(time.Since(t))
		if err != nil {
			return fmt.Errorf("warm replica: %w", err)
		}
		if wd.Cells > 0 {
			cells += wd.Cells
			warmCells += wd.WarmCells
			shifted += wd.ShiftedCells
			refreshed++
		}
		same, err := sameJSON(exact.Summary(), warm.Summary())
		if err != nil {
			return err
		}
		if !same {
			diverged++
		}
	}
	m["checkpoint.log_append_ms"] = medianOr0(&appendT)
	for _, mode := range []string{core.StreamModeAppend, core.StreamModeUpdate, core.StreamModeRebuild} {
		if l := folds[mode]; l != nil {
			m["core.fold_"+mode+"_ms"] = medianOr0(l)
		}
	}
	m["core.fold_warm_ms"] = medianOr0(&warmT)
	if cells > 0 {
		m["cluster.warm_ratio"] = float64(warmCells) / float64(cells)
		m["cluster.shifted_cells"] = float64(shifted) / float64(refreshed)
	}
	if n := warmT.N(); n > 0 {
		m["core.warm_diverged_frac"] = float64(diverged) / float64(n)
	}
	rep.note("warm-mode replica: %d of %d probed ingests left a state that differs from the exact (batch-identical) one", diverged, warmT.N())
	return nil
}

func sameJSON(a, b any) (bool, error) {
	x, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	y, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(x, y), nil
}

// streamOptions are the sweep options the stream-ingest server runs with.
func streamOptions() core.StreamOptions {
	c := streamConfig("").Stream
	return core.StreamOptions{KMin: c.KMin, KMax: c.KMax, ChurnLimit: c.ChurnLimit, Workers: c.Workers, Exact: c.Exact}
}
