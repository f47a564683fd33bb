package nn

import (
	"fmt"
	"math"

	"cnnsfi/internal/tensor"
)

// Conv2D is a 2-D convolution with optional grouping (Groups == InC ==
// OutC gives a depthwise convolution, as used by MobileNetV2). Weights
// are stored in OIHW order: [OutC, InC/Groups, KH, KW]. The CIFAR
// topologies of the paper use bias-free convolutions (batch normalization
// follows every convolution), so Bias may be nil.
type Conv2D struct {
	Label  string
	InC    int
	OutC   int
	KH, KW int
	Stride int
	Pad    int
	Groups int
	// W is the flat OIHW weight storage; this is the fault target.
	W []float32
	// Bias is the optional per-output-channel bias.
	Bias []float32
	// Algo selects the convolution implementation (default ConvAuto).
	Algo ConvAlgo
}

// NewConv2D allocates a zero-weight convolution. groups must divide both
// inC and outC.
func NewConv2D(label string, inC, outC, k, stride, pad, groups int) *Conv2D {
	if groups <= 0 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv %q: groups %d incompatible with %d→%d", label, groups, inC, outC))
	}
	return &Conv2D{
		Label: label, InC: inC, OutC: outC, KH: k, KW: k,
		Stride: stride, Pad: pad, Groups: groups,
		W: make([]float32, outC*(inC/groups)*k*k),
	}
}

// Name returns the layer label.
func (c *Conv2D) Name() string { return c.Label }

// WeightData returns the flat OIHW weight slice (the fault target).
func (c *Conv2D) WeightData() []float32 { return c.W }

// NumWeights returns the weight count, e.g. 432 for the paper's
// ResNet-20 layer 0 (3×3×3→16).
func (c *Conv2D) NumWeights() int { return len(c.W) }

// CloneWeights returns a copy of the convolution with detached weight
// storage. The bias slice is shared: it is not part of the fault
// population and is never mutated by injection.
func (c *Conv2D) CloneWeights() WeightLayer {
	cl := *c
	cl.W = append([]float32(nil), c.W...)
	return &cl
}

// OutSize returns the spatial output size for an input of size in.
func (c *Conv2D) OutSize(in int) int { return (in+2*c.Pad-c.KH)/c.Stride + 1 }

// Forward computes the convolution of an NCHW input. The algorithm
// (direct or im2col, see useIm2col) is a per-layer decision that never
// depends on the batch size or on which channels are recomputed: the
// two are not bit-interchangeable under faults, since a padding tap is
// skipped by direct but multiplied by zero in im2col, which differs for
// NaN/Inf weights.
func (c *Conv2D) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	return c.convolve(a, inputs[0], nil, 0)
}

// convolve computes the convolution of x. With a nil golden it computes
// every output channel. Otherwise only output channel oc is computed and
// every other channel's plane is copied from golden — bit-identical by
// determinism, since those channels' weights are untouched and each
// output channel accumulates independently from its own weight rows, in
// both the direct and the GEMM kernel. Network.ExecBatchFromScratchChannel
// uses that to recompute just the faulted channel of the faulted layer.
func (c *Conv2D) convolve(a *tensor.Arena, x, golden *tensor.Tensor, oc int) *tensor.Tensor {
	if x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: conv %q expects %d input channels, got %d", c.Label, c.InC, x.Shape[1]))
	}
	nb, sz := batchDims(x)
	h, w := x.Shape[2], x.Shape[3]
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	cols := oh * ow
	out := outTensor(a, nb, c.OutC, oh, ow)
	ocLo, ocHi := 0, c.OutC
	if golden != nil {
		copyGoldenExcept(out.Data, golden.Data, nb, c.OutC, cols, oc)
		ocLo, ocHi = oc, oc+1
	}
	if c.useIm2col(oh, ow) {
		buf := c.patchMatrix(a, x, nb, h, w, oh, ow)
		c.gemmTiles(buf, out.Data, ocLo*nb, ocHi*nb, nb, cols)
		return out
	}
	c.direct(x.Data, out.Data, nb, ocLo, ocHi, h, w, oh, ow, sz)
	return out
}

// copyGoldenExcept fills out with golden's planes for every output
// channel except skip, whose plane is left at out's zero fill so the
// caller can accumulate it from scratch.
func copyGoldenExcept(out, golden []float32, nb, outC, plane, skip int) {
	for n := 0; n < nb; n++ {
		base := n * outC * plane
		for ch := 0; ch < outC; ch++ {
			if ch == skip {
				continue
			}
			lo := base + ch*plane
			copy(out[lo:lo+plane], golden[lo:lo+plane])
		}
	}
}

// validRange returns the sub-range [lo, hi) of [0, n) whose indices i
// satisfy 0 <= i*stride+offset < limit — the output positions whose
// input tap lands inside the image. Iterating it ascending visits
// exactly those positions, in order.
func validRange(limit, stride, offset, n int) (lo, hi int) {
	if stride == 1 {
		return validRange1(limit, offset, n)
	}
	lo, hi = 0, n
	if offset < 0 {
		lo = (-offset + stride - 1) / stride
	}
	if m := limit - offset; m <= 0 {
		return 0, 0
	} else if q := (m-1)/stride + 1; q < hi {
		hi = q
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// validRange1 is validRange specialised for stride 1: no divisions, so
// the hot per-tap call costs a handful of ALU ops. An empty range may
// come back as (lo, lo) rather than (0, 0); callers only iterate it.
func validRange1(limit, offset, n int) (lo, hi int) {
	lo = 0
	if offset < 0 {
		lo = -offset
	}
	hi = limit - offset
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// direct computes output channels [ocLo, ocHi) of the direct
// convolution of all nb images. Each output element accumulates its
// taps in (icLocal, ky, kx) order, skipping zero weights, and adds a
// nonzero bias last; padding taps are skipped — elided by precomputed
// valid ranges rather than per-element bounds tests — and the stride-1
// inner loop runs over aligned slices.
func (c *Conv2D) direct(in, out []float32, nb, ocLo, ocHi, h, w, oh, ow, sz int) {
	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	ksize := icg * c.KH * c.KW
	osz := c.OutC * oh * ow
	stride1 := c.Stride == 1
	for n := 0; n < nb; n++ {
		img := in[n*sz : (n+1)*sz]
		o := out[n*osz : (n+1)*osz]
		for oc := ocLo; oc < ocHi; oc++ {
			g := oc / ocg
			wBase := oc * ksize
			outPlane := o[oc*oh*ow : (oc+1)*oh*ow]
			for icLocal := 0; icLocal < icg; icLocal++ {
				ic := g*icg + icLocal
				inPlane := img[ic*h*w : (ic+1)*h*w]
				wOff := wBase + icLocal*c.KH*c.KW
				for ky := 0; ky < c.KH; ky++ {
					oyLo, oyHi := validRange(h, c.Stride, ky-c.Pad, oh)
					for kx := 0; kx < c.KW; kx++ {
						wv := c.W[wOff+ky*c.KW+kx]
						if wv == 0 {
							continue
						}
						oxLo, oxHi := validRange(w, c.Stride, kx-c.Pad, ow)
						if oxLo >= oxHi {
							continue
						}
						if stride1 {
							if oxLo == 0 && oxHi == ow && ow == w {
								// Full rows with matching row strides: the
								// whole (oyHi-oyLo)×ow block is contiguous
								// in both planes (kx == Pad here, so the
								// input block starts on a row boundary).
								// One long loop replaces per-row slicing.
								src := inPlane[(oyLo+ky-c.Pad)*w : (oyHi+ky-c.Pad)*w]
								dst := outPlane[oyLo*w:]
								dst = dst[:len(src)]
								for i, v := range src {
									dst[i] += float32(wv * v)
								}
								continue
							}
							for oy := oyLo; oy < oyHi; oy++ {
								iy := oy + ky - c.Pad
								src := inPlane[iy*w+oxLo+kx-c.Pad : iy*w+oxHi+kx-c.Pad]
								dst := outPlane[oy*ow+oxLo:]
								dst = dst[:len(src)]
								for i, v := range src {
									dst[i] += float32(wv * v)
								}
							}
							continue
						}
						for oy := oyLo; oy < oyHi; oy++ {
							iy := oy*c.Stride + ky - c.Pad
							rowOut := outPlane[oy*ow+oxLo : oy*ow+oxHi]
							ix := oxLo*c.Stride + kx - c.Pad
							base := inPlane[iy*w:]
							for i := range rowOut {
								rowOut[i] += float32(wv * base[ix])
								ix += c.Stride
							}
						}
					}
				}
			}
			if c.Bias != nil {
				if bias := c.Bias[oc]; bias != 0 {
					for i := range outPlane {
						outPlane[i] += bias
					}
				}
			}
		}
	}
}

// Linear is a fully-connected layer; weights are stored row-major
// [Out, In]. The paper's ResNet-20 final layer (64→10, bias-free) has
// 640 weights.
type Linear struct {
	Label string
	In    int
	Out   int
	// W is the flat row-major weight storage (the fault target).
	W []float32
	// Bias is the optional per-output bias.
	Bias []float32
}

// NewLinear allocates a zero-weight fully-connected layer.
func NewLinear(label string, in, out int) *Linear {
	return &Linear{Label: label, In: in, Out: out, W: make([]float32, in*out)}
}

// Name returns the layer label.
func (l *Linear) Name() string { return l.Label }

// WeightData returns the flat weight slice (the fault target).
func (l *Linear) WeightData() []float32 { return l.W }

// NumWeights returns In·Out.
func (l *Linear) NumWeights() int { return len(l.W) }

// CloneWeights returns a copy of the layer with detached weight storage;
// the bias slice is shared (injection never mutates it).
func (l *Linear) CloneWeights() WeightLayer {
	cl := *l
	cl.W = append([]float32(nil), l.W...)
	return &cl
}

// Forward computes W·x (+ bias) for each image of an [N, In] input.
func (l *Linear) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	nb, sz := batchDims(x)
	if sz != l.In {
		panic(fmt.Sprintf("nn: linear %q expects %d inputs, got %d", l.Label, l.In, sz))
	}
	out := outTensor(a, nb, l.Out)
	for n := 0; n < nb; n++ {
		xRow := x.Data[n*l.In : (n+1)*l.In]
		oRow := out.Data[n*l.Out : (n+1)*l.Out]
		for o := range oRow {
			row := l.W[o*l.In : (o+1)*l.In]
			var sum float32
			for i, v := range xRow {
				sum += float32(row[i] * v)
			}
			if l.Bias != nil {
				sum += l.Bias[o]
			}
			oRow[o] = sum
		}
	}
	return out
}

// BatchNorm2D applies per-channel inference-mode batch normalization:
// y = γ·(x − mean)/sqrt(var + ε) + β. Its parameters are not part of the
// paper's fault population (only conv/linear weights are targeted), so it
// intentionally does not implement WeightLayer.
type BatchNorm2D struct {
	Label string
	C     int
	Gamma []float32
	Beta  []float32
	Mean  []float32
	Var   []float32
	Eps   float32

	// scale/shift are the folded per-channel affine coefficients,
	// computed lazily from the statistics above.
	scale, shift []float32
}

// NewBatchNorm2D allocates an identity batch normalization (γ=1, β=0,
// mean=0, var=1).
func NewBatchNorm2D(label string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		Label: label, C: c, Eps: 1e-5,
		Gamma: make([]float32, c), Beta: make([]float32, c),
		Mean: make([]float32, c), Var: make([]float32, c),
	}
	for i := 0; i < c; i++ {
		bn.Gamma[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

// Name returns the layer label.
func (b *BatchNorm2D) Name() string { return b.Label }

// Refold recomputes the folded scale/shift coefficients; call after
// mutating Gamma/Beta/Mean/Var.
func (b *BatchNorm2D) Refold() {
	b.scale = make([]float32, b.C)
	b.shift = make([]float32, b.C)
	for i := 0; i < b.C; i++ {
		inv := 1 / sqrt32(b.Var[i]+b.Eps)
		b.scale[i] = b.Gamma[i] * inv
		b.shift[i] = b.Beta[i] - float32(b.Gamma[i]*b.Mean[i]*inv)
	}
}

// Forward applies the folded affine transform per channel.
func (b *BatchNorm2D) Forward(a *tensor.Arena, inputs ...*tensor.Tensor) *tensor.Tensor {
	x := inputs[0]
	if b.scale == nil {
		b.Refold()
	}
	if x.Shape[1] != b.C {
		panic(fmt.Sprintf("nn: batchnorm %q expects %d channels, got %d", b.Label, b.C, x.Shape[1]))
	}
	nb, sz := batchDims(x)
	out := outTensor(a, x.Shape...)
	plane := x.Shape[2] * x.Shape[3]
	for n := 0; n < nb; n++ {
		for c := 0; c < b.C; c++ {
			s, sh := b.scale[c], b.shift[c]
			src := x.Data[n*sz+c*plane : n*sz+(c+1)*plane]
			o := out.Data[n*sz+c*plane : n*sz+(c+1)*plane]
			for i, v := range src {
				o[i] = float32(s*v) + sh
			}
		}
	}
	return out
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(v)))
}
