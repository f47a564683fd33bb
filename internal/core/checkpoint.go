package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"

	"cnnsfi/internal/stats"
)

// checkpointVersion is bumped whenever the on-disk schema changes.
// Version 2 added the CRC, the writing worker count, and the supervision
// tallies (retries + quarantined faults). Version 3 dropped the worker
// count: shards are cut on the plan's grid, so a checkpoint resumes at
// any worker count. Version 2 files still load (oldestCheckpointVersion);
// their worker count is ignored.
const (
	checkpointVersion       = 3
	oldestCheckpointVersion = 2
)

// checkpointBackupSuffix names the rotated previous checkpoint:
// writeCheckpoint moves the current file to path+".bak" before
// committing the new one, so a write torn by a crash or a disk that
// corrupts the primary still leaves one complete older checkpoint to
// resume from.
const checkpointBackupSuffix = ".bak"

// Checkpoint mismatch and corruption sentinels. loadCheckpoint wraps
// each into its contextual error with %w, so callers dispatch with
// errors.Is to print actionable guidance (cmd/sfirun does exactly
// that). Corruption is the only class with automatic recovery — the
// engine falls back to the rotated backup; the mismatch classes mean
// the checkpoint belongs to a different campaign and no backup can fix
// that.
var (
	// ErrCheckpointCorrupt marks a checkpoint that cannot be trusted:
	// truncated or malformed JSON, a CRC mismatch, or out-of-range
	// tallies.
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrCheckpointVersion marks an on-disk schema version this binary
	// does not speak.
	ErrCheckpointVersion = errors.New("checkpoint version mismatch")
	// ErrCheckpointSeed marks a checkpoint written for a different
	// sampling seed — resuming would splice two different samples.
	ErrCheckpointSeed = errors.New("checkpoint seed mismatch")
	// ErrCheckpointPlan marks a checkpoint whose plan fingerprint (or
	// stratum count) does not match the campaign being resumed.
	ErrCheckpointPlan = errors.New("checkpoint plan mismatch")
	// ErrCheckpointRange marks a checkpoint written for a different
	// WithDrawRanges vector: cursors are absolute draw positions inside
	// the writing run's windows, so resuming with other windows (or as a
	// full run) would mis-place every prefix.
	ErrCheckpointRange = errors.New("checkpoint draw-range mismatch")
)

// checkpointStratum is one stratum's persisted tally: how many draws of
// its sample (a pure function of plan + seed) have been evaluated, and
// what they produced. Cursor sits on the plan's shard grid (or at its
// draw window's end), so a resume at any worker count re-evaluates
// nothing and cuts the rest of the sample on the same grid.
type checkpointStratum struct {
	Cursor    int64                            `json:"cursor"`
	Successes int64                            `json:"successes"`
	PerLayer  map[int]stats.ProportionEstimate `json:"per_layer,omitempty"`
}

// checkpointDoc is the stable on-disk schema of a campaign checkpoint.
// The fingerprint binds it to one exact plan (approach, config, space,
// strata) and the seed to one exact sample, so a checkpoint can never be
// silently resumed against a different campaign.
//
// Checksum is the IEEE CRC-32 of the document marshalled with Checksum
// itself zeroed, which omits the leading "crc32" member; the load
// recomputes it over the file's own bytes with that member cut out (see
// checksumBody), so documents of every schema version verify. Zero
// means "no checksum": the 1-in-2^32 honest zero and hand-written test
// documents both verify trivially.
type checkpointDoc struct {
	Checksum    uint32              `json:"crc32,omitempty"`
	Version     int                 `json:"version"`
	Seed        int64               `json:"seed"`
	Fingerprint uint64              `json:"plan_fingerprint"`
	Injections  int64               `json:"injections"`
	Retries     int64               `json:"retries,omitempty"`
	Abandoned   int64               `json:"abandoned,omitempty"`
	Ranges      []DrawRange         `json:"draw_ranges,omitempty"`
	Quarantined []QuarantinedFault  `json:"quarantined,omitempty"`
	Strata      []checkpointStratum `json:"strata"`
}

// planFingerprint hashes everything that determines a campaign's draw
// and tally: the approach, the Eq. 1 configuration, the fault space,
// and every stratum's bounds.
func planFingerprint(plan *Plan) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%v|%v|%d|%v|%d|",
		plan.Approach, plan.Config, plan.Space.LayerParams, plan.Space.Bits,
		plan.Space.Variants, len(plan.Subpops))
	for _, s := range plan.Subpops {
		fmt.Fprintf(h, "%d,%d,%d,%d,%g;", s.Layer, s.Bit, s.Population, s.SampleSize, s.P)
	}
	return h.Sum64()
}

// PlanFingerprint is the hash the checkpoint schema uses to bind a
// checkpoint to one exact plan. It is exported so tooling and tests can
// construct or inspect checkpoint documents that the engine will accept.
func PlanFingerprint(plan *Plan) uint64 { return planFingerprint(plan) }

// writeCheckpoint persists the current per-stratum prefix tallies
// crash-safely: marshal with an embedded CRC, write to a temp file,
// rotate any existing checkpoint to the .bak backup, then rename the
// temp file into place. At every instant at least one complete,
// CRC-verifiable checkpoint exists on disk.
func (x *execution) writeCheckpoint(path string) error {
	doc := checkpointDoc{
		Version:     checkpointVersion,
		Seed:        x.seed,
		Fingerprint: planFingerprint(x.plan),
		Injections:  x.merged,
		Retries:     x.retries,
		Abandoned:   x.abandoned,
		Ranges:      x.ranges,
		Quarantined: x.quarantined,
		Strata:      make([]checkpointStratum, len(x.strata)),
	}
	for i, st := range x.strata {
		cs := checkpointStratum{Cursor: st.cursor, Successes: st.successes}
		if len(st.perLayer) > 0 {
			cs.PerLayer = make(map[int]stats.ProportionEstimate, len(st.perLayer))
			for l, pl := range st.perLayer {
				cs.PerLayer[l] = *pl
			}
		}
		doc.Strata[i] = cs
	}
	body, err := json.Marshal(doc) // Checksum zero: the bytes the CRC covers
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	doc.Checksum = crc32.ChecksumIEEE(body)
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+checkpointBackupSuffix); err != nil {
			return fmt.Errorf("core: rotating checkpoint backup: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: committing checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint restores per-stratum tallies from a checkpoint written
// for the same plan, seed, and draw ranges. A missing file is not an
// error — the campaign simply starts fresh, which makes resume-or-start
// idempotent for callers. A corrupt (truncated, malformed, CRC-failing)
// primary falls back to the rotated .bak backup with a one-line
// warning; mismatch errors never fall back, because the backup was
// written by the same campaign and would fail identically.
func (x *execution) loadCheckpoint(path string) error {
	bak := path + checkpointBackupSuffix
	src := path
	doc, err := readCheckpointDoc(path)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		// No primary: a crash between writeCheckpoint's two renames
		// leaves only the rotated backup — resume from it rather than
		// silently restarting a multi-hour campaign from zero.
		doc, err = readCheckpointDoc(bak)
		if os.IsNotExist(err) {
			return nil // no checkpoint at all: fresh start
		}
		if err != nil {
			return err
		}
		src = bak
		x.warnf("checkpoint %s missing; resuming from backup %s", path, bak)
	case errors.Is(err, ErrCheckpointCorrupt):
		primaryErr := err
		doc, err = readCheckpointDoc(bak)
		if err != nil {
			return primaryErr // no usable backup: report the primary's corruption
		}
		src = bak
		x.warnf("checkpoint %s unreadable (%v); resuming from backup %s", path, primaryErr, bak)
	default:
		return err
	}
	return x.applyCheckpoint(src, doc)
}

// readCheckpointDoc reads and CRC-verifies one checkpoint file without
// touching any run state. It returns the raw os.IsNotExist error for a
// missing file so loadCheckpoint can distinguish "absent" from
// "unreadable".
func readCheckpointDoc(path string) (*checkpointDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err
		}
		return nil, fmt.Errorf("core: reading checkpoint %s: %w", path, err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w: %v", path, ErrCheckpointCorrupt, err)
	}
	if doc.Checksum != 0 {
		if got := crc32.ChecksumIEEE(checksumBody(data)); got != doc.Checksum {
			return nil, fmt.Errorf("core: checkpoint %s: %w: crc32 %08x, want %08x",
				path, ErrCheckpointCorrupt, got, doc.Checksum)
		}
	}
	return &doc, nil
}

// checksumBody returns the bytes a checkpoint's CRC covers: the file as
// written, minus the leading "crc32" member that writeCheckpoint adds
// after computing the CRC. A document without that prefix is returned
// whole, so it fails the CRC rather than the cut.
func checksumBody(data []byte) []byte {
	prefix := []byte(`{"crc32":`)
	if !bytes.HasPrefix(data, prefix) {
		return data
	}
	comma := bytes.IndexByte(data[len(prefix):], ',')
	if comma < 0 {
		return data
	}
	return append([]byte{'{'}, data[len(prefix)+comma+1:]...)
}

// checkVersion rejects schema versions this binary cannot resume.
func checkVersion(src string, version int) error {
	if version < oldestCheckpointVersion || version > checkpointVersion {
		return fmt.Errorf("core: checkpoint %s: %w: version %d, this build reads %d to %d",
			src, ErrCheckpointVersion, version, oldestCheckpointVersion, checkpointVersion)
	}
	return nil
}

// CheckpointInfo is the engine-independent summary of a checkpoint
// file: enough to report restored progress and to verify that a resume
// will be accepted (seed, fingerprint), without constructing an
// Engine. The sfid service uses it to surface per-job recovery state.
type CheckpointInfo struct {
	// Version is the on-disk schema version.
	Version int
	// Seed is the sampling seed the checkpoint was written for.
	Seed int64
	// Fingerprint is the plan fingerprint (see PlanFingerprint).
	Fingerprint uint64
	// Injections is the number of evaluated draws the checkpoint covers —
	// the prefix a resume restores without re-evaluating anything.
	Injections int64
	// Retries and Quarantined are the supervision tallies carried across
	// the restart.
	Retries     int64
	Quarantined int
	// Strata is the stratum count of the writing plan.
	Strata int
}

// ReadCheckpointInfo reads and CRC-verifies the checkpoint at path,
// following the engine's recovery ladder: a missing or corrupt primary
// falls back to the rotated ".bak" backup. The returned error wraps the
// same sentinels Execute does (ErrCheckpointCorrupt, ...); a missing
// checkpoint (no primary and no backup) returns an error satisfying
// os.IsNotExist.
func ReadCheckpointInfo(path string) (CheckpointInfo, error) {
	doc, err := readCheckpointDoc(path)
	if err != nil {
		if !os.IsNotExist(err) && !errors.Is(err, ErrCheckpointCorrupt) {
			return CheckpointInfo{}, err
		}
		bdoc, berr := readCheckpointDoc(path + checkpointBackupSuffix)
		if berr != nil {
			return CheckpointInfo{}, err // report the primary's failure
		}
		doc = bdoc
	}
	info := CheckpointInfo{
		Version:     doc.Version,
		Seed:        doc.Seed,
		Fingerprint: doc.Fingerprint,
		Injections:  doc.Injections,
		Retries:     doc.Retries,
		Quarantined: len(doc.Quarantined),
		Strata:      len(doc.Strata),
	}
	return info, checkVersion(path, doc.Version)
}

// applyCheckpoint validates the document against the running campaign
// and only then folds it into the run state — a rejected checkpoint
// leaves the execution untouched.
func (x *execution) applyCheckpoint(src string, doc *checkpointDoc) error {
	if err := checkVersion(src, doc.Version); err != nil {
		return err
	}
	if doc.Seed != x.seed {
		return fmt.Errorf("core: checkpoint %s: %w: written for seed %d, not %d — resuming would break bit-identity",
			src, ErrCheckpointSeed, doc.Seed, x.seed)
	}
	if got, want := doc.Fingerprint, planFingerprint(x.plan); got != want {
		return fmt.Errorf("core: checkpoint %s: %w: fingerprint %016x, want %016x",
			src, ErrCheckpointPlan, got, want)
	}
	if len(doc.Strata) != len(x.strata) {
		return fmt.Errorf("core: checkpoint %s: %w: %d strata for a %d-stratum plan",
			src, ErrCheckpointPlan, len(doc.Strata), len(x.strata))
	}
	if !rangesEqual(doc.Ranges, x.ranges) {
		return fmt.Errorf("core: checkpoint %s: %w: written for draw ranges %v, resuming with %v",
			src, ErrCheckpointRange, doc.Ranges, x.ranges)
	}
	for i, cs := range doc.Strata {
		from, to := x.rangeBounds(i)
		if cs.Cursor < from || cs.Cursor > to {
			return fmt.Errorf("core: checkpoint %s: %w: stratum %d cursor %d outside [%d, %d]",
				src, ErrCheckpointCorrupt, i, cs.Cursor, from, to)
		}
	}
	for _, q := range doc.Quarantined {
		if q.Stratum < 0 || q.Stratum >= len(x.strata) {
			return fmt.Errorf("core: checkpoint %s: %w: quarantined fault in stratum %d of a %d-stratum plan",
				src, ErrCheckpointCorrupt, q.Stratum, len(x.strata))
		}
	}
	for i, cs := range doc.Strata {
		st := x.strata[i]
		st.cursor = cs.Cursor
		st.successes = cs.Successes
		if len(cs.PerLayer) > 0 && st.perLayer == nil {
			st.perLayer = make(map[int]*stats.ProportionEstimate, len(cs.PerLayer))
		}
		for l, pl := range cs.PerLayer {
			pl := pl
			st.perLayer[l] = &pl
		}
		from, _ := x.rangeBounds(i)
		x.merged += cs.Cursor - from
		x.critical += cs.Successes
	}
	for _, q := range doc.Quarantined {
		x.strata[q.Stratum].quarantined++
	}
	x.quarantined = append(x.quarantined, doc.Quarantined...)
	x.retries = doc.Retries
	x.abandoned = doc.Abandoned
	x.restored = x.merged
	return nil
}
