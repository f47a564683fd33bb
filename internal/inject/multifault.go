package inject

import (
	"sync/atomic"

	"cnnsfi/internal/faultmodel"
)

// IsCriticalMulti evaluates several simultaneous faults as one
// experiment — lifting the paper's single-fault assumption to model
// multi-bit upsets (MBUs: one particle strike corrupting physically
// adjacent cells) or accumulated permanent defects. All faults are
// applied together, the network suffix from the earliest affected layer
// is re-executed, the criterion is evaluated, and every fault is
// reverted. An empty fault list is never critical, and so is a list
// whose faults are all masked (each would leave its weight
// bit-identical, so together they reproduce the golden network).
func (inj *Injector) IsCriticalMulti(faults []faultmodel.Fault) bool {
	if len(faults) == 0 {
		return false
	}
	allMasked := true
	for _, f := range faults {
		if !inj.Masked(f) {
			allMasked = false
			break
		}
	}
	c := inj.stats()
	if allMasked {
		atomic.AddInt64(&c.skipped, 1)
		return false
	}
	restores := make([]func(), 0, len(faults))
	earliest := faults[0].Layer
	for _, f := range faults {
		restores = append(restores, inj.Apply(f))
		if f.Layer < earliest {
			earliest = f.Layer
		}
	}
	defer func() {
		for i := len(restores) - 1; i >= 0; i-- {
			restores[i]()
		}
		inj.publishArenaGrowth(c)
	}()
	atomic.AddInt64(&c.evaluated, 1)
	// No channel hint: the faults may span several channels and layers.
	mismatches, correct := inj.evaluate(c, inj.nodes[earliest], -1, inj.Criterion == SDC)
	return inj.verdict(mismatches, correct)
}

// AdjacentMBU expands a seed fault into a burst of width adjacent
// bit-flips within the same weight word — the classic multi-bit-upset
// pattern of high-density SRAM. Bits past the word's MSB are clipped, so
// the returned burst may be shorter than width. The seed's model is
// preserved for the first fault; the neighbours are transient flips.
func AdjacentMBU(seed faultmodel.Fault, width, bits int) []faultmodel.Fault {
	if width < 1 {
		panic("inject: MBU width must be ≥ 1")
	}
	out := make([]faultmodel.Fault, 0, width)
	out = append(out, seed)
	for k := 1; k < width; k++ {
		bit := seed.Bit + k
		if bit >= bits {
			break
		}
		out = append(out, faultmodel.Fault{
			Layer: seed.Layer, Param: seed.Param, Bit: bit,
			Model: faultmodel.BitFlip,
		})
	}
	return out
}
