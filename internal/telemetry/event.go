// Package telemetry is the campaign observability layer: a structured
// JSONL trace recorder (Tracer) fed by the engine's TraceSink and
// ProgressSink seams, a Prometheus-text metrics registry with an
// optional HTTP listener that also mounts net/http/pprof, and a trace
// summarizer that replays a recorded campaign into a human-readable
// report (cmd/sfitrace).
//
// The package sits strictly above the engine in the import graph:
// internal/core knows only the TraceSink/ProgressSink function types,
// never this package, so campaigns without telemetry pay nothing. All
// recording is asynchronous and drop-counting — a stalled disk or
// consumer can lose interior events (the drop tally says how many) but
// never blocks the dispatcher and never loses terminal events.
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/evalstats"
)

// Event is one line of a JSONL campaign trace: the on-disk form of the
// engine's TraceEvent and Progress streams plus the tracer's own
// bookkeeping records. It is a flat union discriminated by Kind —
// unrelated fields are omitted from the encoding, except the five index
// fields (stratum, layer, bit, shard, worker) which are always present
// with -1 meaning "not applicable" so index 0 stays unambiguous.
//
// Kinds and their populated field groups:
//
//	campaign_start  campaign, seed, fingerprint, workers, planned, restored, strata
//	stratum_start   campaign, stratum, layer, bit, stratum_planned, done (restored prefix)
//	shard_done      campaign, stratum, shard, worker, injections, dur_ns
//	experiment_retry        campaign, stratum, draw, fault, attempts, error
//	experiment_quarantined  campaign, stratum, draw, fault, attempts, error
//	stratum_end     campaign, stratum, layer, bit, stratum_planned, done, critical,
//	                dur_ns, eval_*
//	checkpoint      campaign, path, done, critical
//	campaign_end    campaign, done, critical, planned, rate, partial, retries,
//	                quarantined, eval_*
//	progress        campaign, done, planned, critical, stratum, stratum_done,
//	                stratum_planned, rate, final, retries, quarantined, eval_*
//	part_meta       campaign, federated_job, part, member, ranges (a federated
//	                part's correlation prologue; see the federation fields)
//	drops           dropped (appended by Tracer.Close when events were lost)
//
// Every kind also carries time_unix_nano and (except drops) elapsed_ns.
type Event struct {
	Kind     string `json:"kind"`
	Campaign string `json:"campaign,omitempty"`
	// TimeUnixNano is the wall-clock emission instant; ElapsedNS the
	// time since the campaign's Execute started.
	TimeUnixNano int64 `json:"time_unix_nano,omitempty"`
	ElapsedNS    int64 `json:"elapsed_ns,omitempty"`

	// Campaign identity (campaign_start): the sampling seed and the
	// plan fingerprint, as zero-padded hex — JSON numbers cannot carry
	// a uint64 faithfully past 2^53.
	Seed        int64  `json:"seed,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	Planned     int64  `json:"planned,omitempty"`
	Restored    int64  `json:"restored,omitempty"`
	Strata      int    `json:"strata,omitempty"`

	// Index fields: always encoded, -1 = not applicable.
	Stratum int `json:"stratum"`
	Layer   int `json:"layer"`
	Bit     int `json:"bit"`
	Shard   int `json:"shard"`
	Worker  int `json:"worker"`

	StratumPlanned int64 `json:"stratum_planned,omitempty"`
	StratumDone    int64 `json:"stratum_done,omitempty"`

	// Done/Critical are tallied injections and criticals — stratum-local
	// for stratum events, campaign-wide otherwise. Injections is a
	// shard's draw count; DurNS a shard or stratum wall time.
	Done       int64 `json:"done,omitempty"`
	Critical   int64 `json:"critical,omitempty"`
	Injections int64 `json:"injections,omitempty"`
	DurNS      int64 `json:"dur_ns,omitempty"`

	// Supervision fields (experiment_retry / experiment_quarantined,
	// plus the campaign-wide retries/quarantined tallies on campaign_end
	// and progress). All omitted when zero so healthy-campaign traces
	// are byte-identical with and without supervision enabled.
	Draw        int64  `json:"draw,omitempty"`
	Fault       string `json:"fault,omitempty"`
	Attempts    int    `json:"attempts,omitempty"`
	Error       string `json:"error,omitempty"`
	Retries     int64  `json:"retries,omitempty"`
	Quarantined int64  `json:"quarantined,omitempty"`

	Rate float64 `json:"rate,omitempty"`

	Partial bool   `json:"partial,omitempty"`
	Final   bool   `json:"final,omitempty"`
	Path    string `json:"path,omitempty"`

	// Flattened evalstats.EvalStats snapshot (see Progress.Eval for the
	// delta-vs-level semantics: arena bytes is a level).
	EvalSkipped    int64 `json:"eval_skipped,omitempty"`
	EvalEvaluated  int64 `json:"eval_evaluated,omitempty"`
	EvalEarlyExits int64 `json:"eval_early_exits,omitempty"`
	EvalArenaBytes int64 `json:"eval_arena_bytes,omitempty"`

	// Dropped is the tracer's lost-event count (kind "drops").
	Dropped int64 `json:"dropped,omitempty"`

	// Federation correlation. A member daemon running one part of a
	// federated campaign opens its trace with a part_meta event carrying
	// all four; a coordinator's merged trace keeps those prologues and
	// stamps Part/Member onto every spliced member event so each line of
	// the global trace names the daemon that produced it. All omitted
	// outside federated traces, so single-node traces are byte-stable.
	// Part is a pointer so part 0 survives the omitempty encoding.
	FederatedJob string           `json:"federated_job,omitempty"`
	Part         *int             `json:"part,omitempty"`
	Member       string           `json:"member,omitempty"`
	Ranges       []core.DrawRange `json:"ranges,omitempty"`
}

// Extra event kinds the tracer emits beyond the engine's TraceKind
// vocabulary.
const (
	// KindProgress records one engine Progress event.
	KindProgress = "progress"
	// KindDrops is appended by Tracer.Close when events were dropped.
	KindDrops = "drops"
	// KindPartMeta is a federated part's correlation prologue: the
	// first event of a member's part trace, naming the coordinator job,
	// part index, member, and draw windows the part covers.
	KindPartMeta = "part_meta"
)

// knownKinds is the complete vocabulary ParseEvent accepts.
var knownKinds = func() map[string]bool {
	m := map[string]bool{KindProgress: true, KindDrops: true, KindPartMeta: true}
	for k := core.TraceCampaignStart; k <= core.TraceCampaignEnd; k++ {
		m[k.String()] = true
	}
	return m
}()

// newEvent returns an Event of the given kind with the index fields at
// their "not applicable" value.
func newEvent(kind string) Event {
	return Event{Kind: kind, Stratum: -1, Layer: -1, Bit: -1, Shard: -1, Worker: -1}
}

// NewEvent is the constructor for synthesized events — e.g. a
// coordinator splicing a merged federated trace — returning an Event of
// the given kind with the index fields at their "not applicable" value,
// exactly as the tracer's own conversions produce them.
func NewEvent(kind string) Event { return newEvent(kind) }

// PartMeta builds the correlation prologue of one federated part: the
// first event of a member's part trace (and, relabelled, of the
// coordinator's merged trace), naming the coordinator job, part index,
// member, and the draw windows the part covers.
func PartMeta(campaign, federatedJob string, part int, member string, ranges []core.DrawRange) Event {
	e := newEvent(KindPartMeta)
	e.Campaign = campaign
	e.TimeUnixNano = time.Now().UnixNano()
	e.FederatedJob = federatedJob
	e.Part = &part
	e.Member = member
	e.Ranges = ranges
	return e
}

// FromTrace converts one engine trace event to its JSONL form, labelled
// with the campaign name (one trace file may interleave several named
// campaigns).
func FromTrace(campaign string, ev core.TraceEvent) Event {
	e := newEvent(ev.Kind.String())
	e.Campaign = campaign
	e.TimeUnixNano = ev.Time.UnixNano()
	e.ElapsedNS = int64(ev.Elapsed)
	e.Seed = ev.Seed
	if ev.Kind == core.TraceCampaignStart {
		e.Fingerprint = fmt.Sprintf("%016x", ev.Fingerprint)
	}
	e.Workers = ev.Workers
	e.Planned = ev.Planned
	e.Restored = ev.Restored
	e.Strata = ev.Strata
	e.Stratum = ev.Stratum
	e.Layer = ev.Layer
	e.Bit = ev.Bit
	e.Shard = ev.Shard
	e.Worker = ev.Worker
	e.StratumPlanned = ev.StratumPlanned
	e.Done = ev.Done
	e.Critical = ev.Critical
	e.Injections = ev.Injections
	e.DurNS = int64(ev.Dur)
	e.Draw = ev.Draw
	e.Fault = ev.Fault
	e.Attempts = ev.Attempts
	e.Error = ev.Err
	e.Retries = ev.Retries
	e.Quarantined = ev.Quarantined
	e.Rate = ev.Rate
	e.Partial = ev.Partial
	e.Path = ev.Path
	e.setEval(ev.Eval)
	return e
}

// FromProgress converts one engine progress event to its JSONL form.
func FromProgress(campaign string, p core.Progress) Event {
	e := newEvent(KindProgress)
	e.Campaign = campaign
	e.TimeUnixNano = time.Now().UnixNano()
	e.ElapsedNS = int64(p.Elapsed)
	e.Done = p.Done
	e.Planned = p.Planned
	e.Critical = p.Critical
	e.Stratum = p.Stratum
	e.StratumDone = p.StratumDone
	e.StratumPlanned = p.StratumPlanned
	e.Rate = p.Rate
	e.Final = p.Final
	e.Retries = p.Retries
	e.Quarantined = p.Quarantined
	e.setEval(p.Eval)
	return e
}

func (e *Event) setEval(s evalstats.EvalStats) {
	e.EvalSkipped = s.Skipped
	e.EvalEvaluated = s.Evaluated
	e.EvalEarlyExits = s.EarlyExits
	e.EvalArenaBytes = s.ArenaBytes
}

// Eval reassembles the flattened evalstats snapshot.
func (e Event) Eval() evalstats.EvalStats {
	return evalstats.EvalStats{
		Skipped:    e.EvalSkipped,
		Evaluated:  e.EvalEvaluated,
		EarlyExits: e.EvalEarlyExits,
		ArenaBytes: e.EvalArenaBytes,
	}
}

// ParseEvent decodes one JSONL trace line strictly: unknown fields and
// unknown kinds are errors, so schema drift surfaces as a parse failure
// rather than silently dropped data. A parsed event re-marshals to the
// exact bytes json.Marshal produced when writing it (the round-trip the
// trace tests pin).
func ParseEvent(line []byte) (Event, error) {
	var e Event
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return Event{}, fmt.Errorf("telemetry: bad trace line: %w", err)
	}
	if !knownKinds[e.Kind] {
		return Event{}, fmt.Errorf("telemetry: unknown event kind %q", e.Kind)
	}
	return e, nil
}
