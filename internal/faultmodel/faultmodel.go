// Package faultmodel defines the fault universes of the paper and the
// deterministic indexing used to enumerate and sample them.
//
// The paper's fault model is permanent stuck-at faults on the static
// parameters (weights) of a CNN: for every weight bit there are exactly
// two faults (stuck-at-0 and stuck-at-1), so a network with W weights in
// I-bit representation has a population of N = W·I·2 faults (e.g.
// ResNet-20: 268,336 × 32 × 2 ≈ 17.2M; MobileNetV2: 2,203,584 × 32 × 2 =
// 141,029,376). Transient single-bit-flips (one fault per bit) are also
// supported as an extension.
//
// Faults are addressed by a (layer, param, bit, model) tuple, and each
// subpopulation (the whole network, one layer, or one bit position
// within one layer — the granularities of the paper's four SFI
// approaches) has a dense [0, size) index space so that uniform sampling
// without replacement reduces to sampling integers.
package faultmodel

import (
	"fmt"
	"math/bits"
)

// Model enumerates the supported fault types.
type Model uint8

// Fault models.
const (
	// StuckAt0 permanently forces the bit to logic 0.
	StuckAt0 Model = iota
	// StuckAt1 permanently forces the bit to logic 1.
	StuckAt1
	// BitFlip transiently inverts the bit (single-event upset).
	BitFlip
)

// String names the fault model.
func (m Model) String() string {
	switch m {
	case StuckAt0:
		return "sa0"
	case StuckAt1:
		return "sa1"
	case BitFlip:
		return "flip"
	default:
		return "unknown"
	}
}

// Fault identifies a single fault: the weight-layer index (the paper's
// layer numbering), the parameter index within the layer's flat weight
// storage, the bit position (0 = LSB), and the fault model.
type Fault struct {
	Layer int
	Param int
	Bit   int
	Model Model
}

// String renders the fault like "L3.w142.b30.sa1".
func (f Fault) String() string {
	return fmt.Sprintf("L%d.w%d.b%d.%s", f.Layer, f.Param, f.Bit, f.Model)
}

// Space is a fault universe over a network's weight layers: the cross
// product of parameters × bit positions × fault variants, organized into
// the subpopulations the SFI approaches sample from.
type Space struct {
	// LayerParams is the number of weights in each layer (the
	// "Parameters" column of Table I).
	LayerParams []int
	// Bits is the representation width (32 for the paper's FP32).
	Bits int
	// Variants are the fault models applied to every bit: both stuck-at
	// faults for the permanent model, or a single BitFlip for the
	// transient extension.
	Variants []Model
}

// NewStuckAt returns the paper's permanent-fault universe (stuck-at-0
// and stuck-at-1 on every bit).
func NewStuckAt(layerParams []int, bits int) Space {
	return Space{LayerParams: layerParams, Bits: bits, Variants: []Model{StuckAt0, StuckAt1}}
}

// NewBitFlip returns the transient single-bit-flip universe.
func NewBitFlip(layerParams []int, bits int) Space {
	return Space{LayerParams: layerParams, Bits: bits, Variants: []Model{BitFlip}}
}

// NumLayers returns the number of weight layers.
func (s Space) NumLayers() int { return len(s.LayerParams) }

// variantsPerBit returns the number of fault variants per bit position.
func (s Space) variantsPerBit() int64 { return int64(len(s.Variants)) }

// Total returns the full population size N: Σ_l params(l)·Bits·variants.
func (s Space) Total() int64 {
	var total int64
	for l := range s.LayerParams {
		total += s.LayerTotal(l)
	}
	return total
}

// LayerTotal returns N_l, the population size of layer l.
func (s Space) LayerTotal(l int) int64 {
	return int64(s.LayerParams[l]) * int64(s.Bits) * s.variantsPerBit()
}

// BitLayerTotal returns N_(i,l), the subpopulation size of one bit
// position within layer l: params(l)·variants. For the stuck-at model
// this is the paper's "number of weights in that layer multiplied by 2".
func (s Space) BitLayerTotal(l int) int64 {
	return int64(s.LayerParams[l]) * s.variantsPerBit()
}

// BitLayerFault decodes index j ∈ [0, BitLayerTotal(l)) of the
// (bit i, layer l) subpopulation into a concrete fault.
func (s Space) BitLayerFault(l, bit int, j int64) Fault {
	if bit < 0 || bit >= s.Bits {
		panic(fmt.Sprintf("faultmodel: bit %d out of range", bit))
	}
	if j < 0 || j >= s.BitLayerTotal(l) {
		panic(fmt.Sprintf("faultmodel: index %d out of bit-layer subpopulation", j))
	}
	// A power-of-two variant count — both universes defined here: two
	// stuck-at variants, one bit-flip — decodes with a shift and a mask
	// instead of a 64-bit division. j ≥ 0, so both forms are exact.
	v := s.variantsPerBit()
	if v&(v-1) == 0 {
		return Fault{Layer: l, Param: int(j >> bits.TrailingZeros64(uint64(v))), Bit: bit, Model: s.Variants[j&(v-1)]}
	}
	return Fault{Layer: l, Param: int(j / v), Bit: bit, Model: s.Variants[j%v]}
}

// LayerFault decodes index j ∈ [0, LayerTotal(l)) of layer l's population
// into a concrete fault. The index runs fastest over variants, then
// parameters, then bits.
func (s Space) LayerFault(l int, j int64) Fault {
	if j < 0 || j >= s.LayerTotal(l) {
		panic(fmt.Sprintf("faultmodel: index %d out of layer population", j))
	}
	perBit := s.BitLayerTotal(l)
	bit := int(j / perBit)
	return s.BitLayerFault(l, bit, j%perBit)
}

// GlobalFault decodes index g ∈ [0, Total()) of the whole-network
// population into a concrete fault. Layers are laid out consecutively.
func (s Space) GlobalFault(g int64) Fault {
	if g < 0 {
		panic("faultmodel: negative global index")
	}
	for l := range s.LayerParams {
		n := s.LayerTotal(l)
		if g < n {
			return s.LayerFault(l, g)
		}
		g -= n
	}
	panic("faultmodel: global index out of population")
}

// GlobalIndex is the inverse of GlobalFault.
func (s Space) GlobalIndex(f Fault) int64 {
	var base int64
	for l := 0; l < f.Layer; l++ {
		base += s.LayerTotal(l)
	}
	v := s.variantsPerBit()
	perBit := s.BitLayerTotal(f.Layer)
	var variant int64 = -1
	for i, m := range s.Variants {
		if m == f.Model {
			variant = int64(i)
			break
		}
	}
	if variant < 0 {
		panic(fmt.Sprintf("faultmodel: model %v not in space", f.Model))
	}
	return base + int64(f.Bit)*perBit + int64(f.Param)*v + variant
}

// Validate reports whether the fault addresses a real location in the
// space.
func (s Space) Validate(f Fault) error {
	if f.Layer < 0 || f.Layer >= len(s.LayerParams) {
		return fmt.Errorf("faultmodel: layer %d out of range [0,%d)", f.Layer, len(s.LayerParams))
	}
	if f.Param < 0 || f.Param >= s.LayerParams[f.Layer] {
		return fmt.Errorf("faultmodel: param %d out of range for layer %d", f.Param, f.Layer)
	}
	if f.Bit < 0 || f.Bit >= s.Bits {
		return fmt.Errorf("faultmodel: bit %d out of range [0,%d)", f.Bit, s.Bits)
	}
	for _, m := range s.Variants {
		if m == f.Model {
			return nil
		}
	}
	return fmt.Errorf("faultmodel: model %v not part of this space", f.Model)
}
