// Package nn implements the CNN inference (and, together with package
// train, training) substrate: convolution, batch normalization, ReLU /
// ReLU6, residual addition, pooling, and fully-connected layers, composed
// into a directed acyclic graph with named, injectable weight layers.
//
// The fault-injection methodology of the paper targets the static
// parameters (weights) of convolutional and fully-connected layers; those
// layers implement WeightLayer and expose their raw float32 storage so
// that the injector can mutate single bits in place and revert them.
//
// Every layer has exactly one kernel, and it is batched: activations
// carry a leading batch dimension N (NCHW feature maps, [N, F] vectors)
// and a single image is simply batch 1. The kernels are batch-invariant
// — for every image n, the output slice [n·len : (n+1)·len] is the same,
// bit for bit, as a batch-1 run on that image alone. Per-element
// accumulation order therefore never depends on the batch: the conv GEMM
// accumulates k-ascending with zero-weight skips and never splits k, and
// pooling windows always scan ky→kx. Network.Exec and its siblings adapt
// CHW images to this batch-1 form.
//
// Every product is rounded to float32 before it is added (an explicit
// float32(x*y) conversion), so hosts that could fuse a multiply-add
// compute the same bits as amd64.
package nn

import (
	"fmt"

	"cnnsfi/internal/tensor"
)

// Layer transforms batched activations. Implementations must be safe
// for repeated calls and may not retain the inputs or the output.
type Layer interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Forward applies the layer to batched inputs (layers with multiple
	// inputs, such as Add, receive them in order). The output — and any
	// internal workspace, such as Conv2D's im2col patch matrix — comes
	// from a when it is non-nil, valid only until the arena's next Reset
	// (see tensor.Arena for the single-owner discipline), and from the
	// heap when a is nil. For every image of the batch the output must
	// be bit-identical to a batch-1 call on that image.
	Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor
}

// outTensor allocates a zero-filled output tensor from the arena when
// one is supplied (the injection hot path) or from the heap when a is
// nil. Layer kernels rely on the zero fill: they accumulate into the
// output or write only selected elements.
func outTensor(a *tensor.Arena, shape ...int) *tensor.Tensor {
	if a != nil {
		return a.Get(shape...)
	}
	return tensor.New(shape...)
}

// batchDims returns the batch size and per-image element count of a
// batched tensor.
func batchDims(x *tensor.Tensor) (nb, sz int) {
	nb = x.Shape[0]
	if nb <= 0 {
		panic(fmt.Sprintf("nn: batched tensor with batch size %d", nb))
	}
	return nb, x.Len() / nb
}

// WeightLayer is a layer whose static parameters are part of the fault
// population (convolutions and fully-connected layers in the paper).
type WeightLayer interface {
	Layer
	// WeightData returns the raw backing slice of the layer's weights.
	// Mutating an element injects a fault; the injector saves and
	// restores values around each experiment.
	WeightData() []float32
	// NumWeights returns len(WeightData()).
	NumWeights() int
}

// WeightCloner is implemented by weight layers that can produce an
// independent copy whose weight storage is detached from the original.
// Network.Clone relies on it to build per-worker networks for
// concurrent fault injection: fault campaigns mutate only WeightData,
// so a clone with fresh weight storage is fully isolated even when the
// rest of the layer state is shared.
type WeightCloner interface {
	WeightLayer
	// CloneWeights returns a copy of the layer with freshly allocated
	// weight storage holding the same values. State that injection
	// never mutates (bias, hyperparameters) may be shared.
	CloneWeights() WeightLayer
}

// ReLU applies max(0, x) elementwise.
type ReLU struct{ Label string }

// Name returns the layer label.
func (r *ReLU) Name() string { return r.Label }

// Forward applies the rectifier.
func (r *ReLU) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	out := outTensor(a, x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// ReLU6 applies min(max(0, x), 6), the activation used by MobileNetV2.
type ReLU6 struct{ Label string }

// Name returns the layer label.
func (r *ReLU6) Name() string { return r.Label }

// Forward applies the clipped rectifier.
func (r *ReLU6) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	out := outTensor(a, x.Shape...)
	for i, v := range x.Data {
		switch {
		case v <= 0:
		case v >= 6:
			out.Data[i] = 6
		default:
			out.Data[i] = v
		}
	}
	return out
}

// Add sums two activation tensors of identical shape (residual join).
type Add struct{ Label string }

// Name returns the layer label.
func (a *Add) Name() string { return a.Label }

// Forward returns inputs[0] + inputs[1]. It panics on shape mismatch.
func (a *Add) Forward(ar *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x, y := inputs[0], inputs[1]
	if !tensor.SameShape(x, y) {
		panic(fmt.Sprintf("nn: Add shape mismatch %v vs %v", x.Shape, y.Shape))
	}
	out := outTensor(ar, x.Shape...)
	for i := range x.Data {
		out.Data[i] = x.Data[i] + y.Data[i]
	}
	return out
}

// GlobalAvgPool reduces an NCHW tensor to [N, C] by averaging each
// channel plane.
type GlobalAvgPool struct{ Label string }

// Name returns the layer label.
func (g *GlobalAvgPool) Name() string { return g.Label }

// Forward averages over the spatial dimensions.
func (g *GlobalAvgPool) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	nb, sz := batchDims(x)
	c, plane := x.Shape[1], x.Shape[2]*x.Shape[3]
	out := outTensor(a, nb, c)
	area := float32(plane)
	for n := 0; n < nb; n++ {
		img := x.Data[n*sz : (n+1)*sz]
		o := out.Data[n*c : (n+1)*c]
		for ci := range o {
			var sum float32
			for _, v := range img[ci*plane : (ci+1)*plane] {
				sum += v
			}
			o[ci] = sum / area
		}
	}
	return out
}

// AvgPool2D averages non-overlapping or strided k×k windows.
type AvgPool2D struct {
	Label  string
	Kernel int
	Stride int
}

// Name returns the layer label.
func (p *AvgPool2D) Name() string { return p.Label }

// Forward applies average pooling with implicit valid padding, scanning
// each window ky outer, kx inner.
func (p *AvgPool2D) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	nb, sz := batchDims(x)
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.Kernel)/p.Stride + 1
	ow := (w-p.Kernel)/p.Stride + 1
	out := outTensor(a, nb, c, oh, ow)
	osz := c * oh * ow
	norm := float32(p.Kernel * p.Kernel)
	for n := 0; n < nb; n++ {
		img := x.Data[n*sz : (n+1)*sz]
		o := out.Data[n*osz : (n+1)*osz]
		for ci := 0; ci < c; ci++ {
			plane := img[ci*h*w : (ci+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					for ky := 0; ky < p.Kernel; ky++ {
						row := plane[(oy*p.Stride+ky)*w+ox*p.Stride:]
						for kx := 0; kx < p.Kernel; kx++ {
							sum += row[kx]
						}
					}
					o[(ci*oh+oy)*ow+ox] = sum / norm
				}
			}
		}
	}
	return out
}

// MaxPool2D takes the maximum over strided k×k windows.
type MaxPool2D struct {
	Label  string
	Kernel int
	Stride int
}

// Name returns the layer label.
func (p *MaxPool2D) Name() string { return p.Label }

// Forward applies max pooling with implicit valid padding, seeding each
// window with its top-left element and scanning ky→kx.
func (p *MaxPool2D) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	nb, sz := batchDims(x)
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.Kernel)/p.Stride + 1
	ow := (w-p.Kernel)/p.Stride + 1
	out := outTensor(a, nb, c, oh, ow)
	osz := c * oh * ow
	for n := 0; n < nb; n++ {
		img := x.Data[n*sz : (n+1)*sz]
		o := out.Data[n*osz : (n+1)*osz]
		for ci := 0; ci < c; ci++ {
			plane := img[ci*h*w : (ci+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := plane[(oy*p.Stride)*w+ox*p.Stride]
					for ky := 0; ky < p.Kernel; ky++ {
						row := plane[(oy*p.Stride+ky)*w+ox*p.Stride:]
						for kx := 0; kx < p.Kernel; kx++ {
							if v := row[kx]; v > best {
								best = v
							}
						}
					}
					o[(ci*oh+oy)*ow+ox] = best
				}
			}
		}
	}
	return out
}

// Flatten reshapes each image of a batch into a vector: [N, ...] → [N, F].
type Flatten struct{ Label string }

// Name returns the layer label.
func (f *Flatten) Name() string { return f.Label }

// Forward returns a rank-2 copy of the input.
func (f *Flatten) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	nb, sz := batchDims(x)
	out := outTensor(a, nb, sz)
	copy(out.Data, x.Data)
	return out
}

// ShortcutA implements the parameter-free "option A" residual shortcut of
// the original CIFAR ResNet: spatial subsampling by Stride and zero-
// padding the channel dimension up to OutC. It has no weights, so it
// contributes nothing to the fault population (matching the paper's
// ResNet-20 layer table, which lists only the 19 convolutions and the
// final fully-connected layer).
type ShortcutA struct {
	Label  string
	Stride int
	OutC   int
}

// Name returns the layer label.
func (s *ShortcutA) Name() string { return s.Label }

// Forward subsamples spatially and zero-pads channels: channels ≥ the
// input's stay at the output's zero fill.
func (s *ShortcutA) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	nb, sz := batchDims(x)
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h + s.Stride - 1) / s.Stride
	ow := (w + s.Stride - 1) / s.Stride
	out := outTensor(a, nb, s.OutC, oh, ow)
	osz := s.OutC * oh * ow
	for n := 0; n < nb; n++ {
		img := x.Data[n*sz : (n+1)*sz]
		o := out.Data[n*osz : (n+1)*osz]
		for ci := 0; ci < c && ci < s.OutC; ci++ {
			plane := img[ci*h*w : (ci+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				row := plane[(oy*s.Stride)*w:]
				orow := o[(ci*oh+oy)*ow:]
				for ox := 0; ox < ow; ox++ {
					orow[ox] = row[ox*s.Stride]
				}
			}
		}
	}
	return out
}
