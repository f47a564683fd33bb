package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/telemetry"
)

// This file splices the fetched member part traces of a completed
// federated job into one global trace (<id>.trace.jsonl), shaped
// exactly like a single-node engine trace of the same campaign:
//
//	campaign_start                      synthesized from (plan, spec)
//	part_meta × parts                   the members' correlation prologues
//	per stratum, in plan order:
//	  stratum_start                     synthesized
//	  shard_done / experiment_retry /   spliced member events, in part
//	    experiment_quarantined            order (= global draw order)
//	  stratum_end                       synthesized from the merged Result
//	progress (final) + campaign_end     synthesized totals
//
// Member draw windows are executed with WithDrawRanges, so Draw values
// in member events are already absolute — splicing re-bases nothing.
// Every spliced event keeps its member-local timing but is relabelled
// to the coordinator campaign and stamped with (federated_job, part,
// member); shard indices are renumbered sequentially per stratum, since
// member-local shard numbers collide across parts. The payoff is the
// identity `sfitrace -strip-timing` pins: the stripped report of the
// merged trace is byte-identical to the stripped report of a
// single-node run of the same (plan, seed) — timing, shard geometry,
// and worker counts are exactly the detail stripping hides.

// interiorKinds are the member trace kinds that survive the splice.
// Everything else is either member-local bookkeeping (checkpoint paths,
// member-shaped campaign/stratum frames, progress) or replaced by a
// synthesized global frame.
var interiorKinds = map[string]bool{
	"shard_done":             true,
	"experiment_retry":       true,
	"experiment_quarantined": true,
}

// spliceFederatedTrace writes the merged global trace from the fetched
// part traces. Missing or unreadable part traces degrade to warnings
// and a sparser merged trace; only a write failure of the merged file
// itself is returned as an error.
func (s *Service) spliceFederatedTrace(j *job, plan *core.Plan, fed *fedDoc, merged *core.Result) error {
	type partTrace struct {
		interior map[int][]telemetry.Event // stratum → spliceable events, file order
		end      *telemetry.Event
	}
	parts := make([]partTrace, len(fed.Parts))
	for k := range fed.Parts {
		f, err := os.Open(s.partTracePath(j.id, k))
		if err != nil {
			s.appendWarning(j, "merged trace: part %d trace missing (%v); splicing without it", k, err)
			continue
		}
		events, rerr := telemetry.ReadTrace(f)
		f.Close()
		if rerr != nil {
			s.appendWarning(j, "merged trace: part %d trace unreadable (%v); splicing without it", k, rerr)
			continue
		}
		pt := partTrace{interior: map[int][]telemetry.Event{}}
		for i := range events {
			ev := events[i]
			switch {
			case interiorKinds[ev.Kind]:
				pt.interior[ev.Stratum] = append(pt.interior[ev.Stratum], ev)
			case ev.Kind == "campaign_end":
				pt.end = &events[i]
			case ev.Kind == telemetry.KindDrops && ev.Dropped > 0:
				s.appendWarning(j, "merged trace: part %d trace dropped %d event(s); interior detail may be incomplete",
					k, ev.Dropped)
			}
		}
		parts[k] = pt
	}

	name := j.spec.Name
	now := time.Now().UnixNano()
	planned := plan.TotalInjections()
	critical := criticalOf(merged)
	// Supervision and evaluation tallies sum across the part campaigns;
	// arena bytes is a level, so the fleet-wide figure is the maximum.
	var retries, skipped, evaluated, earlyExits, arena int64
	for k := range parts {
		if end := parts[k].end; end != nil {
			retries += end.Retries
			skipped += end.EvalSkipped
			evaluated += end.EvalEvaluated
			earlyExits += end.EvalEarlyExits
			if end.EvalArenaBytes > arena {
				arena = end.EvalArenaBytes
			}
		}
	}
	// Quarantined draws are exactly the planned-minus-tallied gap of the
	// merged estimates — derived from the Result rather than summed from
	// part traces, so a missing part trace cannot skew the count.
	var quarantined int64
	for i := range plan.Subpops {
		quarantined += plan.Subpops[i].SampleSize - merged.Estimates[i].SampleSize
	}

	out := make([]telemetry.Event, 0, 64)
	start := telemetry.NewEvent("campaign_start")
	start.Campaign = name
	start.TimeUnixNano = now
	start.Seed = j.spec.RunSeed
	start.Fingerprint = fmt.Sprintf("%016x", fed.Fingerprint)
	start.Workers = j.spec.Workers
	start.Planned = planned
	start.Strata = len(plan.Subpops)
	out = append(out, start)
	for k := range fed.Parts {
		pm := telemetry.PartMeta(name, j.id, k, fed.Parts[k].Copies[0].Label, fed.Parts[k].Ranges)
		pm.TimeUnixNano = now
		out = append(out, pm)
	}

	for i, sub := range plan.Subpops {
		ss := telemetry.NewEvent("stratum_start")
		ss.Campaign = name
		ss.TimeUnixNano = now
		ss.Stratum, ss.Layer, ss.Bit = i, sub.Layer, sub.Bit
		ss.StratumPlanned = sub.SampleSize
		out = append(out, ss)
		shardSeq := 0
		for k := range parts {
			for _, ev := range parts[k].interior[i] {
				part := k
				ev.Campaign = name
				ev.FederatedJob = j.id
				ev.Part = &part
				ev.Member = fed.Parts[k].Copies[0].Label
				if ev.Kind == "shard_done" {
					ev.Shard = shardSeq
					shardSeq++
				}
				out = append(out, ev)
			}
		}
		se := telemetry.NewEvent("stratum_end")
		se.Campaign = name
		se.TimeUnixNano = now
		se.Stratum, se.Layer, se.Bit = i, sub.Layer, sub.Bit
		se.StratumPlanned = sub.SampleSize
		se.Done = sub.SampleSize
		se.Critical = merged.Estimates[i].Successes
		out = append(out, se)
	}

	prog := telemetry.NewEvent(telemetry.KindProgress)
	prog.Campaign = name
	prog.TimeUnixNano = now
	prog.Done, prog.Planned, prog.Critical = planned, planned, critical
	prog.Final = true
	prog.Retries, prog.Quarantined = retries, quarantined
	prog.EvalSkipped, prog.EvalEvaluated, prog.EvalEarlyExits, prog.EvalArenaBytes = skipped, evaluated, earlyExits, arena
	out = append(out, prog)

	end := telemetry.NewEvent("campaign_end")
	end.Campaign = name
	end.TimeUnixNano = now
	end.Done, end.Planned, end.Critical = planned, planned, critical
	end.Retries, end.Quarantined = retries, quarantined
	end.EvalSkipped, end.EvalEvaluated, end.EvalEarlyExits, end.EvalArenaBytes = skipped, evaluated, earlyExits, arena
	out = append(out, end)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range out {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("service: encoding merged trace: %w", err)
		}
	}
	path := s.tracePath(j.id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("service: writing merged trace: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("service: committing merged trace: %w", err)
	}
	return nil
}
