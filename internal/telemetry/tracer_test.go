package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"cnnsfi/internal/core"
)

// blockingWriter blocks every Write until released, simulating a
// stalled disk.
type blockingWriter struct {
	release chan struct{}
	once    sync.Once
	buf     bytes.Buffer
	mu      sync.Mutex
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *blockingWriter) Release() { w.once.Do(func() { close(w.release) }) }

func (w *blockingWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// wedgeEvent is an event whose encoded line exceeds the tracer's
// internal bufio buffer, so a stalled underlying writer back-pressures
// the writer goroutine immediately instead of being absorbed by the
// buffer — making the drop-policy tests deterministic.
func wedgeEvent(shard int) core.TraceEvent {
	return core.TraceEvent{Kind: core.TraceCheckpoint, Shard: shard,
		Path: strings.Repeat("x", 8192)}
}

// TestTracerDropPolicy pins the contract: a stalled writer drops
// interior events (counted, never blocking the emitter), and Close
// records the loss in the trace itself.
func TestTracerDropPolicy(t *testing.T) {
	w := &blockingWriter{release: make(chan struct{})}
	tr := NewTracer(w, 1)
	sink := tr.Sink("stall")

	// The writer goroutine wedges on whichever event it picks up first;
	// at most one more sits in the 1-slot buffer, and the rest must be
	// dropped — synchronously, without ever blocking the emitter.
	for i := 0; i < 10; i++ {
		sink(wedgeEvent(i))
	}
	if tr.Dropped() == 0 {
		t.Fatal("no drops despite stalled writer and full buffer")
	}

	w.Release()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events, err := ReadTrace(strings.NewReader(w.String()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	last := events[len(events)-1]
	if last.Kind != KindDrops {
		t.Fatalf("last event kind = %q, want %q", last.Kind, KindDrops)
	}
	if last.Dropped != tr.Dropped() {
		t.Errorf("drops event count = %d, want %d", last.Dropped, tr.Dropped())
	}
	if got := int64(len(events)-1) + last.Dropped; got != 10 {
		t.Errorf("written + dropped = %d, want 10", got)
	}
}

// TestTracerTerminalEventsNeverDrop: campaign_end and final progress
// block for buffer space rather than dropping.
func TestTracerTerminalEventsNeverDrop(t *testing.T) {
	w := &blockingWriter{release: make(chan struct{})}
	tr := NewTracer(w, 1)

	// Saturate: the writer goroutine wedges on the first oversized
	// event it picks up, and the 1-slot buffer fills behind it.
	tr.Sink("c")(wedgeEvent(0))
	tr.Sink("c")(wedgeEvent(1))

	finals := make(chan struct{})
	go func() {
		tr.Sink("c")(core.TraceEvent{Kind: core.TraceCampaignEnd, Done: 42})
		tr.Progress("c")(core.Progress{Final: true, Done: 42})
		close(finals)
	}()
	select {
	case <-finals:
		t.Fatal("terminal emits returned while the buffer was saturated (would have been dropped)")
	case <-time.After(50 * time.Millisecond):
	}

	w.Release()
	select {
	case <-finals:
	case <-time.After(5 * time.Second):
		t.Fatal("terminal emits still blocked after writer drained")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events, err := ReadTrace(strings.NewReader(w.String()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	var sawEnd, sawFinal bool
	for _, ev := range events {
		if ev.Kind == "campaign_end" && ev.Done == 42 {
			sawEnd = true
		}
		if ev.Kind == KindProgress && ev.Final {
			sawFinal = true
		}
	}
	if !sawEnd || !sawFinal {
		t.Errorf("terminal events lost: campaign_end=%v final_progress=%v", sawEnd, sawFinal)
	}
}

func TestTracerEmitAfterCloseDropsQuietly(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 8)
	sink := tr.Sink("c")
	sink(core.TraceEvent{Kind: core.TraceCampaignStart})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	before := tr.Dropped()
	sink(core.TraceEvent{Kind: core.TraceShardDone}) // must not panic
	if got := tr.Dropped(); got != before+1 {
		t.Errorf("post-Close emit: dropped = %d, want %d", got, before+1)
	}
	if err := tr.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

// TestEventRoundTrip pins the schema contract: every written line
// re-marshals to identical bytes after ParseEvent, and unknown fields
// or kinds are rejected.
func TestEventRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 64)
	sink, prog := tr.Sink("rt"), tr.Progress("rt")
	sink(core.TraceEvent{
		Kind: core.TraceCampaignStart, Time: time.Unix(1, 2), Elapsed: time.Millisecond,
		Seed: 42, Fingerprint: 0xdeadbeef, Workers: 3, Planned: 1000, Strata: 7,
		Stratum: -1, Layer: -1, Bit: -1, Shard: -1, Worker: -1,
	})
	sink(core.TraceEvent{Kind: core.TraceShardDone, Stratum: 2, Shard: 5, Worker: 1,
		Injections: 128, Dur: 3 * time.Millisecond, Layer: -1, Bit: -1})
	sink(core.TraceEvent{Kind: core.TraceCheckpoint, Path: "run.ckpt", Done: 211, Critical: 3,
		Stratum: -1, Layer: -1, Bit: -1, Shard: -1, Worker: -1})
	prog(core.Progress{Done: 500, Planned: 1000, Critical: 9, Stratum: 2, Final: true})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for _, line := range lines {
		ev, err := ParseEvent([]byte(line))
		if err != nil {
			t.Fatalf("ParseEvent(%s): %v", line, err)
		}
		re, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != line {
			t.Errorf("round trip mismatch:\n in: %s\nout: %s", line, re)
		}
	}

	if fp := mustParse(t, lines[0]).Fingerprint; fp != "00000000deadbeef" {
		t.Errorf("fingerprint = %q, want zero-padded hex", fp)
	}

	if _, err := ParseEvent([]byte(`{"kind":"progress","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseEvent([]byte(`{"kind":"nonsense"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	// Traces recorded by builds with margin-based early stop no longer
	// parse: the kind and its margin field are gone.
	if _, err := ParseEvent([]byte(`{"kind":"early_stop","stratum":0,"layer":-1,"bit":-1,"shard":-1,"worker":-1}`)); err == nil {
		t.Error("early_stop kind accepted")
	}
	if _, err := ParseEvent([]byte(`not json`)); err == nil {
		t.Error("non-JSON line accepted")
	}
}

func mustParse(t *testing.T, line string) Event {
	t.Helper()
	ev, err := ParseEvent([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	return ev
}
