package inject

import (
	"sync"
	"testing"

	"cnnsfi/internal/core"
	"cnnsfi/internal/dataset"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/models"
	"cnnsfi/internal/stats"
)

// TestCloneWeightIndependence: a fault applied through a clone must not
// be visible in the parent's weights, and vice versa — clones deep-copy
// weight storage, which is the only state Apply mutates.
func TestCloneWeightIndependence(t *testing.T) {
	parent := newTestInjector(t)
	clone := parent.Clone()

	pw := parent.Net.WeightLayers()[0].WeightData()
	cw := clone.Net.WeightLayers()[0].WeightData()
	if &pw[0] == &cw[0] {
		t.Fatal("clone shares weight storage with parent")
	}

	f := faultmodel.Fault{Layer: 0, Param: 3, Bit: 30, Model: faultmodel.StuckAt1}
	restore := clone.Apply(f)
	if pw[3] != cw[3] {
		// Expected: the clone's weight changed, the parent's did not.
		restore()
	} else {
		restore()
		t.Fatal("fault applied to clone leaked into parent weights")
	}

	restore = parent.Apply(f)
	if cw[3] == pw[3] {
		restore()
		t.Fatal("fault applied to parent leaked into clone weights")
	}
	restore()
}

// TestCloneVerdictsMatchParent: a clone carries the same golden state,
// so IsCritical must agree with the parent on every fault.
func TestCloneVerdictsMatchParent(t *testing.T) {
	parent := newTestInjector(t)
	clone := parent.Clone()
	space := parent.Space()
	for g := int64(0); g < 120; g++ {
		f := space.GlobalFault(g * 911 % space.Total())
		if clone.IsCritical(f) != parent.IsCritical(f) {
			t.Fatalf("fault %v: clone verdict diverges from parent", f)
		}
	}
}

// TestCloneSharesGoldenCaches: New builds one golden activation cache
// per image while the weights are golden, so a clone — taken, as the
// engine takes its worker clones, after the root has evaluated — shares
// the inputs and caches and owns its own scratch view.
func TestCloneSharesGoldenCaches(t *testing.T) {
	root := newTestInjector(t)
	if len(root.inputs) != root.NumImages() || len(root.caches) != root.NumImages() {
		t.Fatalf("New built %d inputs and %d caches for %d images",
			len(root.inputs), len(root.caches), root.NumImages())
	}
	f := unmaskedFault(t, root)
	root.IsCritical(f) // the root's scratch is now in use

	c := root.Clone()
	if &c.inputs[0] != &root.inputs[0] || &c.caches[0] != &root.caches[0] {
		t.Fatal("clone does not share the golden inputs and caches")
	}
	if c.scratch != nil {
		t.Fatal("clone inherited the root's scratch; it must be per-instance")
	}
	c.IsCritical(f)
	if &c.scratch[0] == &root.scratch[0] {
		t.Fatal("clone and root evaluate into the same scratch view")
	}
}

// TestCloneCountsAggregate: clones share the root's atomic EvalStats
// counters, so campaign totals survive the fan-out/join.
func TestCloneCountsAggregate(t *testing.T) {
	parent := newTestInjector(t)
	a, b := parent.Clone(), parent.Clone()
	f := faultmodel.Fault{Layer: 0, Param: 0, Bit: 10, Model: faultmodel.StuckAt1}
	parent.IsCritical(f)
	a.IsCritical(f)
	a.IsCritical(f)
	b.IsCritical(f)
	if got := parent.EvalStats().Experiments(); got != 4 {
		t.Errorf("root experiments = %d, want 4 (aggregated across clones)", got)
	}
}

// TestCloneForWorkerImplementsContract: the core.WorkerCloner adapter
// must hand back a fully independent Evaluator.
func TestCloneForWorkerImplementsContract(t *testing.T) {
	parent := newTestInjector(t)
	var _ core.WorkerCloner = parent
	ev := parent.CloneForWorker()
	if _, ok := ev.(*Injector); !ok {
		t.Fatalf("CloneForWorker returned %T, want *Injector", ev)
	}
	if ev.(*Injector) == parent {
		t.Fatal("CloneForWorker returned the parent itself")
	}
}

// TestConcurrentClones hammers one clone per goroutine over the same
// fault set; run under `go test -race` this proves the cloned injectors
// share no mutable state (the shared golden inputs are read-only, the
// experiment counter is atomic).
func TestConcurrentClones(t *testing.T) {
	parent := newTestInjector(t)
	space := parent.Space()

	// Serial reference verdicts.
	const faults = 64
	want := make([]bool, faults)
	ref := parent.Clone()
	for g := 0; g < faults; g++ {
		want[g] = ref.IsCritical(space.GlobalFault(int64(g*1811) % space.Total()))
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(clone *Injector) {
			defer wg.Done()
			for g := 0; g < faults; g++ {
				f := space.GlobalFault(int64(g*1811) % space.Total())
				if clone.IsCritical(f) != want[g] {
					errs <- f.String()
					return
				}
			}
		}(parent.Clone())
	}
	wg.Wait()
	close(errs)
	for f := range errs {
		t.Errorf("concurrent clone verdict diverged on fault %s", f)
	}
}

// TestActivationInjectorConcurrent: the activation injector never
// mutates shared state in IsCritical (faulty tensors are private
// copies), so goroutines may share one instance without cloning.
func TestActivationInjectorConcurrent(t *testing.T) {
	net := models.SmallCNN(1)
	ds := dataset.Synthetic(dataset.Config{N: 4, Seed: 1, Size: 16})
	inj := NewActivation(net, ds)
	space := inj.Space()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(offset int64) {
			defer wg.Done()
			for g := int64(0); g < 32; g++ {
				inj.IsCritical(space.GlobalFault((offset + g*211) % space.Total()))
			}
		}(int64(w * 37))
	}
	wg.Wait()
	if inj.Injections != 8*32 {
		t.Errorf("Injections = %d, want %d", inj.Injections, 8*32)
	}
}

// TestRunParallelInjectorMatchesRun is the inference-substrate twin of
// core's oracle determinism test: the shard-parallel runner must hand
// back bit-identical results for an Injector at any worker count, with
// workers 1+ evaluating on per-worker weight clones. It lives here
// because core's in-package tests cannot import inject (cycle).
func TestRunParallelInjectorMatchesRun(t *testing.T) {
	inj := newTestInjector(t)
	cfg := stats.DefaultConfig()
	cfg.ErrorMargin = 0.05 // keep the inference campaign small
	for _, plan := range []*core.Plan{
		core.PlanNetworkWise(inj.Space(), cfg),
		core.PlanLayerWise(inj.Space(), cfg),
	} {
		serial := core.Run(inj, plan, 3)
		for _, workers := range []int{1, 4} {
			parallel := core.RunParallel(inj, plan, 3, workers)
			for i := range serial.Estimates {
				if parallel.Estimates[i] != serial.Estimates[i] {
					t.Fatalf("%s workers=%d stratum %d: %+v != %+v",
						plan.Approach, workers, i, parallel.Estimates[i], serial.Estimates[i])
				}
			}
			for l, est := range serial.LayerSlices {
				if parallel.LayerSlices[l] != est {
					t.Fatalf("%s workers=%d layer slice %d mismatch", plan.Approach, workers, l)
				}
			}
		}
	}
}
