package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/faultmodel"
)

// verdictTable holds one verdict bit per fault of a stuck-at space,
// indexed like faultmodel.Space.GlobalIndex.
type verdictTable struct {
	space  faultmodel.Space
	base   []int64 // global index of each layer's first fault
	perBit []int64 // faults per (bit, layer) stratum
	bits   []uint64
}

func newVerdictTable(space faultmodel.Space) (*verdictTable, error) {
	if len(space.Variants) != 2 || space.Variants[0] != faultmodel.StuckAt0 || space.Variants[1] != faultmodel.StuckAt1 {
		return nil, fmt.Errorf("verdict table: want the stuck-at space, got variants %v", space.Variants)
	}
	t := &verdictTable{space: space, bits: make([]uint64, (space.Total()+63)/64)}
	var base int64
	for l := 0; l < space.NumLayers(); l++ {
		t.base = append(t.base, base)
		t.perBit = append(t.perBit, space.BitLayerTotal(l))
		base += space.LayerTotal(l)
	}
	return t, nil
}

func (t *verdictTable) index(f faultmodel.Fault) int64 {
	return t.base[f.Layer] + int64(f.Bit)*t.perBit[f.Layer] + int64(f.Param)*2 + int64(f.Model)
}

func (t *verdictTable) get(f faultmodel.Fault) bool {
	i := t.index(f)
	return t.bits[i>>6]&(1<<(i&63)) != 0
}

// set is single-writer per 64-fault word.
func (t *verdictTable) set(f faultmodel.Fault, v bool) {
	i := t.index(f)
	if v {
		t.bits[i>>6] |= 1 << (i & 63)
	} else {
		t.bits[i>>6] &^= 1 << (i & 63)
	}
}

// fillExhaustive asks every fault of the space for its verdict, split
// into contiguous, word-aligned global-index ranges over one goroutine
// per CPU. verdictFor returns the verdict function goroutine g uses, so
// evaluators that are not safe for concurrent use can hand each
// goroutine its own clone.
func (t *verdictTable) fillExhaustive(verdictFor func(g int) func(faultmodel.Fault) bool) {
	total := t.space.Total()
	workers := runtime.NumCPU()
	chunk := (total/int64(workers) + 63) &^ 63
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		lo, hi := int64(g)*chunk, min(int64(g+1)*chunk, total)
		if lo >= hi {
			break
		}
		verdict := verdictFor(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < t.space.NumLayers(); l++ {
				n := t.space.LayerTotal(l)
				from, to := max(lo-t.base[l], 0), min(hi-t.base[l], n)
				for j := from; j < to; j++ {
					f := t.space.LayerFault(l, j)
					t.set(f, verdict(f))
				}
			}
		}()
	}
	wg.Wait()
}

// instances tracks an evaluator and every worker clone the engine takes
// of it, so per-instance counters can be folded after Execute returns
// (all workers joined).
type instances[T any] struct {
	mu  sync.Mutex
	all []T
}

func (r *instances[T]) add(v T) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all = append(r.all, v)
	return len(r.all) - 1
}

func (r *instances[T]) list() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]T(nil), r.all...)
}

// lookupEvaluator answers each verdict with one bit read from a verdict
// table: an Execute against it costs the engine (sampling, sharding,
// dispatch, merge, tally) and nothing else. Worker clones count their
// calls privately.
type lookupEvaluator struct {
	table *verdictTable
	calls int64
	reg   *instances[*lookupEvaluator]
}

func newLookupEvaluator(t *verdictTable) *lookupEvaluator {
	e := &lookupEvaluator{table: t, reg: &instances[*lookupEvaluator]{}}
	e.reg.add(e)
	return e
}

func (e *lookupEvaluator) IsCritical(f faultmodel.Fault) bool {
	e.calls++
	return e.table.get(f)
}

func (e *lookupEvaluator) Space() faultmodel.Space { return e.table.space }

func (e *lookupEvaluator) CloneForWorker() core.Evaluator {
	c := &lookupEvaluator{table: e.table, reg: e.reg}
	e.reg.add(c)
	return c
}

// totalCalls is the verdict count across the evaluator and its clones.
func (e *lookupEvaluator) totalCalls() int64 {
	var n int64
	for _, c := range e.reg.list() {
		n += c.calls
	}
	return n
}

// layerCost accumulates the calls into one weight layer: all of them, and
// separately the unmasked ones (the experiments that ran an evaluation).
type layerCost struct {
	calls, masked     int64
	allNs, unmaskedNs int64
}

func (c *layerCost) add(o layerCost) {
	c.calls += o.calls
	c.masked += o.masked
	c.allNs += o.allNs
	c.unmaskedNs += o.unmaskedNs
}

// expSpan is one unmasked experiment, in nanoseconds since the run's
// time origin.
type expSpan struct {
	start, end int64
	layer      int32
	worker     int32
}

// faultVerdict is one (fault, verdict) pair seen by a traced campaign.
type faultVerdict struct {
	f faultmodel.Fault
	v bool
}

// timedEvaluator is the benchmark-owned timing wrapper. It forwards
// Space, IsCritical, CloneForWorker and EvalStats, so the engine drives
// it exactly as it drives the wrapped evaluator, and times every
// IsCritical call. Per-call costs are summed per weight layer; with
// spans on, every unmasked experiment also becomes a span (the oracle's
// verdicts cost less than a span, so the oracle workload aggregates
// only). Each worker clone records privately; collect folds them.
type timedEvaluator struct {
	inner  core.Evaluator
	masked func(faultmodel.Fault) bool // nil when inner has no masked-fault predicate
	shared *timedShared
	worker int32

	layers   []layerCost
	busyNs   int64
	spans    []expSpan
	verdicts []faultVerdict
}

type timedShared struct {
	t0       time.Time
	spans    bool
	verdicts bool
	reg      instances[*timedEvaluator]
}

func newTimedEvaluator(inner core.Evaluator, t0 time.Time, spans, verdicts bool) *timedEvaluator {
	return wrapTimed(inner, &timedShared{t0: t0, spans: spans, verdicts: verdicts})
}

func wrapTimed(inner core.Evaluator, sh *timedShared) *timedEvaluator {
	e := &timedEvaluator{inner: inner, shared: sh, layers: make([]layerCost, inner.Space().NumLayers())}
	if m, ok := inner.(interface{ Masked(faultmodel.Fault) bool }); ok {
		e.masked = m.Masked
	}
	e.worker = int32(sh.reg.add(e))
	return e
}

func (e *timedEvaluator) Space() faultmodel.Space { return e.inner.Space() }

func (e *timedEvaluator) IsCritical(f faultmodel.Fault) bool {
	masked := e.masked != nil && e.masked(f)
	t0 := time.Now()
	v := e.inner.IsCritical(f)
	t1 := time.Now()
	ns := t1.Sub(t0).Nanoseconds()
	c := &e.layers[f.Layer]
	c.calls++
	c.allNs += ns
	e.busyNs += ns
	if masked {
		c.masked++
	} else {
		c.unmaskedNs += ns
		if e.shared.spans {
			e.spans = append(e.spans, expSpan{
				start:  t0.Sub(e.shared.t0).Nanoseconds(),
				end:    t1.Sub(e.shared.t0).Nanoseconds(),
				layer:  int32(f.Layer),
				worker: e.worker,
			})
		}
	}
	if e.shared.verdicts {
		e.verdicts = append(e.verdicts, faultVerdict{f, v})
	}
	return v
}

// CloneForWorker wraps the inner evaluator's own clone, or shares the
// inner evaluator when it is concurrency-safe as is (the oracle).
func (e *timedEvaluator) CloneForWorker() core.Evaluator {
	inner := e.inner
	if c, ok := inner.(core.WorkerCloner); ok {
		inner = c.CloneForWorker()
	}
	return wrapTimed(inner, e.shared)
}

func (e *timedEvaluator) EvalStats() core.EvalStats {
	if r, ok := e.inner.(core.StatsReporter); ok {
		return r.EvalStats()
	}
	return core.EvalStats{}
}

// collected is everything the wrapper and its clones recorded during
// one Execute.
type collected struct {
	layers   []layerCost
	busyNs   int64
	spans    []expSpan
	verdicts []faultVerdict
}

// collect folds every instance's records and clears them, ready for the
// next campaign. Call it only after Execute has returned.
func (e *timedEvaluator) collect() collected {
	out := collected{layers: make([]layerCost, len(e.layers))}
	for _, in := range e.shared.reg.list() {
		for l := range in.layers {
			out.layers[l].add(in.layers[l])
			in.layers[l] = layerCost{}
		}
		out.busyNs += in.busyNs
		out.spans = append(out.spans, in.spans...)
		out.verdicts = append(out.verdicts, in.verdicts...)
		in.busyNs, in.spans, in.verdicts = 0, nil, nil
	}
	return out
}

var (
	_ core.WorkerCloner  = (*lookupEvaluator)(nil)
	_ core.WorkerCloner  = (*timedEvaluator)(nil)
	_ core.StatsReporter = (*timedEvaluator)(nil)
)
