package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cnnsfi/internal/tensor"
)

// naiveConv is an obviously-correct reference convolution of one CHW
// image that is also bit-exact: it accumulates each output element in
// float32 in the production tap order — (input channel, ky, kx)
// ascending, zero weights skipped, bias added last — and treats padding
// taps the way the selected algorithm does: direct skips them, im2col
// multiplies them by zero. For NaN and ±Inf weights the two differ, so
// the reference takes the algorithm as a parameter.
func naiveConv(c *Conv2D, x *tensor.Tensor, im2col bool) *tensor.Tensor {
	h, w := x.Shape[1], x.Shape[2]
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	out := tensor.New(c.OutC, oh, ow)
	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	for oc := 0; oc < c.OutC; oc++ {
		g := oc / ocg
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float32
				for icl := 0; icl < icg; icl++ {
					ic := g*icg + icl
					for ky := 0; ky < c.KH; ky++ {
						for kx := 0; kx < c.KW; kx++ {
							wv := c.W[((oc*icg+icl)*c.KH+ky)*c.KW+kx]
							if wv == 0 {
								continue
							}
							var v float32 // a padding tap reads zero
							iy := oy*c.Stride + ky - c.Pad
							ix := ox*c.Stride + kx - c.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								v = x.At3(ic, iy, ix)
							} else if !im2col {
								continue
							}
							sum += wv * v
						}
					}
				}
				if c.Bias != nil {
					sum += c.Bias[oc]
				}
				out.Set3(oc, oy, ox, sum)
			}
		}
	}
	return out
}

func randomize(rng *rand.Rand, data []float32, scale float64) {
	for i := range data {
		data[i] = float32((rng.Float64()*2 - 1) * scale)
	}
}

func tensorsClose(t *testing.T, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("shape mismatch: %v vs %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > tol {
			t.Fatalf("element %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// stack stacks CHW images into one NCHW batch.
func stack(imgs ...*tensor.Tensor) *tensor.Tensor {
	sz := imgs[0].Len()
	x := tensor.New(append([]int{len(imgs)}, imgs[0].Shape...)...)
	for n, img := range imgs {
		copy(x.Data[n*sz:(n+1)*sz], img.Data)
	}
	return x
}

// bitsEqual fails unless got's per-image slice n equals want bit for
// bit (NaN payloads included).
func bitsEqual(t *testing.T, got *tensor.Tensor, n int, want *tensor.Tensor) {
	t.Helper()
	sz := want.Len()
	if got.Len() < (n+1)*sz {
		t.Fatalf("output shape %v too small for image %d of shape %v", got.Shape, n, want.Shape)
	}
	for i, wv := range want.Data {
		if g, e := math.Float32bits(got.Data[n*sz+i]), math.Float32bits(wv); g != e {
			t.Fatalf("image %d elem %d: %08x, want %08x", n, i, g, e)
		}
	}
}

// TestGemmRowMatchesGoLoop pins gemmRow to the Go loop it replaced in
// the conv GEMM, bit for bit: row lengths across the inner loop's edges,
// with zero, negative-zero, infinite, subnormal and NaN weights and
// inputs, NaNs of distinct payloads on both sides of the multiply and
// the add. Elements between and after the rows it reads, and past dst,
// must not matter or change; a src too short for its rows must panic.
func TestGemmRowMatchesGoLoop(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), 1.5, -3,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, math.MaxFloat32,
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345), math.Float32frombits(0x7f800001),
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() float32 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float32(rng.NormFloat64())
	}
	for cols := 0; cols <= 40; cols++ {
		for trial := 0; trial < 10; trial++ {
			w := make([]float32, rng.Intn(6))
			for i := range w {
				w[i] = pick()
			}
			stride := cols + rng.Intn(3)
			src := make([]float32, max(len(w)*stride, 1))
			for i := range src {
				src[i] = pick()
			}
			got, want := make([]float32, cols+1), make([]float32, cols+1)
			for i := range got {
				got[i] = pick()
			}
			copy(want, got)
			d := want[:cols]
			for kk, wv := range w {
				if wv == 0 {
					continue
				}
				for i, v := range src[kk*stride : kk*stride+cols] {
					d[i] += wv * v
				}
			}
			gemmRow(w, src, stride, got[:cols])
			for i := range want {
				if g, e := math.Float32bits(got[i]), math.Float32bits(want[i]); g != e {
					t.Fatalf("cols=%d w=%v elem %d: %08x, want %08x", cols, w, i, g, e)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("gemmRow read past a short src without panicking")
		}
	}()
	gemmRow([]float32{1, 1}, make([]float32, 7), 4, make([]float32, 4))
}

// TestConv2DMatchesNaive compares the conv kernel with the bit-exact
// float32 reference, at batch 1 and batch 3, on both algorithms
// wherever both apply — first with finite weights, then with a NaN, a
// +Inf and a −Inf weight planted in three different output channels
// (one non-finite source per output element, so every NaN payload is
// determined by the tap order alone).
func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name                          string
		inC, outC, k, stride, pad, gr int
		h, w                          int
		bias                          bool
	}{
		{"3x3 same", 3, 16, 3, 1, 1, 1, 8, 8, false},
		{"3x3 stride2", 16, 32, 3, 2, 1, 1, 8, 8, false},
		{"1x1 pointwise", 8, 24, 1, 1, 0, 1, 5, 5, false},
		{"depthwise", 8, 8, 3, 1, 1, 8, 6, 6, false},
		{"depthwise stride2", 8, 8, 3, 2, 1, 8, 7, 7, false},
		{"grouped", 8, 12, 3, 1, 1, 4, 6, 6, false},
		{"biased", 4, 6, 3, 1, 1, 1, 5, 5, true},
		{"5x5 nopad", 3, 4, 5, 1, 0, 1, 9, 9, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2D(tc.name, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.gr)
			randomize(rng, c.W, 0.5)
			if tc.bias {
				c.Bias = make([]float32, tc.outC)
				randomize(rng, c.Bias, 0.5)
			}
			imgs := make([]*tensor.Tensor, 3)
			for i := range imgs {
				imgs[i] = tensor.New(tc.inC, tc.h, tc.w)
				randomize(rng, imgs[i].Data, 1)
			}
			algos := []ConvAlgo{ConvDirect}
			if tc.gr == 1 {
				algos = append(algos, ConvIm2col)
			}
			check := func() {
				t.Helper()
				for _, algo := range append(algos, ConvAuto) {
					c.Algo = algo
					im2col := c.useIm2col(c.OutSize(tc.h), c.OutSize(tc.w))
					for _, nb := range []int{1, 3} {
						got := c.Forward(nil, stack(imgs[:nb]...))
						for n := 0; n < nb; n++ {
							bitsEqual(t, got, n, naiveConv(c, imgs[n], im2col))
						}
					}
				}
			}
			check()
			ksize := len(c.W) / tc.outC
			c.W[0] = float32(math.NaN())
			c.W[ksize+ksize/2] = float32(math.Inf(1))
			c.W[2*ksize+ksize-1] = float32(math.Inf(-1))
			check()
		})
	}
}

func TestConv2DKnownValue(t *testing.T) {
	// 1-channel 1x1 kernel = scalar multiply.
	c := NewConv2D("id", 1, 1, 1, 1, 0, 1)
	c.W[0] = 2
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out := c.Forward(nil, x)
	want := []float32{2, 4, 6, 8}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("got %v", out.Data)
		}
	}
}

func TestConv2DOutSize(t *testing.T) {
	c := NewConv2D("t", 3, 8, 3, 2, 1, 1)
	if got := c.OutSize(32); got != 16 {
		t.Errorf("OutSize(32) = %d, want 16", got)
	}
	c2 := NewConv2D("t2", 3, 8, 3, 1, 1, 1)
	if got := c2.OutSize(32); got != 32 {
		t.Errorf("same-pad OutSize(32) = %d, want 32", got)
	}
}

func TestNewConv2DPanicsOnBadGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad groups did not panic")
		}
	}()
	NewConv2D("bad", 3, 8, 3, 1, 1, 2)
}

func TestConv2DPanicsOnWrongChannels(t *testing.T) {
	c := NewConv2D("t", 3, 8, 3, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("wrong channel count did not panic")
		}
	}()
	c.Forward(nil, tensor.New(1, 4, 8, 8))
}

func TestLinear(t *testing.T) {
	l := NewLinear("fc", 3, 2)
	copy(l.W, []float32{1, 2, 3, 4, 5, 6})
	x := tensor.FromSlice([]float32{1, 1, 1}, 1, 3)
	out := l.Forward(nil, x)
	if out.Data[0] != 6 || out.Data[1] != 15 {
		t.Errorf("linear = %v", out.Data)
	}
	l.Bias = []float32{10, 20}
	out = l.Forward(nil, x)
	if out.Data[0] != 16 || out.Data[1] != 35 {
		t.Errorf("biased linear = %v", out.Data)
	}
}

func TestLinearPanicsOnBadInput(t *testing.T) {
	l := NewLinear("fc", 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("bad linear input did not panic")
		}
	}()
	l.Forward(nil, tensor.New(1, 4))
}

func TestReLU(t *testing.T) {
	r := &ReLU{Label: "relu"}
	out := r.Forward(nil, tensor.FromSlice([]float32{-1, 0, 2.5}, 1, 3))
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2.5 {
		t.Errorf("relu = %v", out.Data)
	}
}

func TestReLU6(t *testing.T) {
	r := &ReLU6{Label: "relu6"}
	out := r.Forward(nil, tensor.FromSlice([]float32{-1, 3, 7, 6}, 1, 4))
	want := []float32{0, 3, 6, 6}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("relu6 = %v", out.Data)
		}
	}
}

func TestAdd(t *testing.T) {
	a := &Add{Label: "add"}
	x := tensor.FromSlice([]float32{1, 2}, 1, 2)
	y := tensor.FromSlice([]float32{10, 20}, 1, 2)
	out := a.Forward(nil, x, y)
	if out.Data[0] != 11 || out.Data[1] != 22 {
		t.Errorf("add = %v", out.Data)
	}
}

func TestAddPanicsOnShapeMismatch(t *testing.T) {
	a := &Add{Label: "add"}
	defer func() {
		if recover() == nil {
			t.Error("mismatched add did not panic")
		}
	}()
	a.Forward(nil, tensor.New(1, 2), tensor.New(1, 3))
}

func TestGlobalAvgPool(t *testing.T) {
	g := &GlobalAvgPool{Label: "gap"}
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := g.Forward(nil, x)
	if out.Data[0] != 2.5 || out.Data[1] != 25 {
		t.Errorf("gap = %v", out.Data)
	}
}

func TestAvgPool2D(t *testing.T) {
	p := &AvgPool2D{Label: "avg", Kernel: 2, Stride: 2}
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 1, 4, 4)
	out := p.Forward(nil, x)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("avgpool = %v", out.Data)
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	p := &MaxPool2D{Label: "max", Kernel: 2, Stride: 2}
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 1, 4, 4)
	out := p.Forward(nil, x)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("maxpool = %v", out.Data)
		}
	}
}

func TestFlatten(t *testing.T) {
	f := &Flatten{Label: "flat"}
	out := f.Forward(nil, tensor.New(1, 2, 3, 4))
	if out.Rank() != 2 || out.Shape[0] != 1 || out.Len() != 24 {
		t.Errorf("flatten shape = %v", out.Shape)
	}
}

func TestShortcutA(t *testing.T) {
	s := &ShortcutA{Label: "sc", Stride: 2, OutC: 4}
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := s.Forward(nil, x)
	if out.Shape[0] != 1 || out.Shape[1] != 4 || out.Shape[2] != 2 || out.Shape[3] != 2 {
		t.Fatalf("shortcut shape = %v", out.Shape)
	}
	// Subsampled first channel takes every other pixel.
	if out.At4(0, 0, 0, 0) != 1 || out.At4(0, 0, 0, 1) != 3 || out.At4(0, 0, 1, 0) != 9 || out.At4(0, 0, 1, 1) != 11 {
		t.Errorf("shortcut data wrong: %v", out.Data[:4])
	}
	// Padded channels are zero.
	for c := 1; c < 4; c++ {
		for i := 0; i < 4; i++ {
			if out.Data[c*4+i] != 0 {
				t.Fatal("padded channel not zero")
			}
		}
	}
}

func TestBatchNorm2D(t *testing.T) {
	bn := NewBatchNorm2D("bn", 2)
	bn.Gamma = []float32{2, 1}
	bn.Beta = []float32{1, 0}
	bn.Mean = []float32{1, 0}
	bn.Var = []float32{4, 1}
	bn.Eps = 0
	bn.Refold()
	x := tensor.FromSlice([]float32{3, 5, 2, 4}, 1, 2, 2, 1)
	out := bn.Forward(nil, x)
	// channel0: 2*(x-1)/2+1 = x  → 3, 5
	if math.Abs(float64(out.Data[0]-3)) > 1e-5 || math.Abs(float64(out.Data[1]-5)) > 1e-5 {
		t.Errorf("bn channel0 = %v", out.Data[:2])
	}
	// channel1: identity → 2, 4
	if math.Abs(float64(out.Data[2]-2)) > 1e-5 || math.Abs(float64(out.Data[3]-4)) > 1e-5 {
		t.Errorf("bn channel1 = %v", out.Data[2:])
	}
}

func TestBatchNormIdentityDefault(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	bn.Eps = 0
	bn.Refold()
	x := tensor.FromSlice([]float32{1.5, -2}, 1, 1, 2, 1)
	out := bn.Forward(nil, x)
	if out.Data[0] != 1.5 || out.Data[1] != -2 {
		t.Errorf("default bn not identity: %v", out.Data)
	}
}

func buildTinyNet() *Network {
	n := NewNetwork("tiny")
	c1 := NewConv2D("conv0", 1, 2, 3, 1, 1, 1)
	for i := range c1.W {
		c1.W[i] = float32(i%5) * 0.1
	}
	n.Add(c1)
	n.Add(&ReLU{Label: "relu0"})
	c2 := NewConv2D("conv1", 2, 2, 3, 1, 1, 1)
	for i := range c2.W {
		c2.W[i] = float32(i%3) * 0.2
	}
	id2 := n.Add(c2)
	n.Add(&Add{Label: "res"}, 1, id2) // residual from relu0
	n.Add(&GlobalAvgPool{Label: "gap"})
	fc := NewLinear("fc", 2, 3)
	for i := range fc.W {
		fc.W[i] = float32(i) * 0.1
	}
	n.Add(fc)
	return n
}

func TestNetworkForwardAndWeightLayers(t *testing.T) {
	n := buildTinyNet()
	if n.NumWeightLayers() != 3 {
		t.Fatalf("weight layers = %d, want 3", n.NumWeightLayers())
	}
	counts := n.LayerParamCounts()
	if counts[0] != 18 || counts[1] != 36 || counts[2] != 6 {
		t.Errorf("param counts = %v", counts)
	}
	if n.TotalWeights() != 60 {
		t.Errorf("total weights = %d", n.TotalWeights())
	}
	x := tensor.New(1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i) * 0.05
	}
	out := n.Forward(x)
	if out.Len() != 3 {
		t.Fatalf("output len = %d", out.Len())
	}
	if n.Predict(x) != out.ArgMax() {
		t.Error("Predict disagrees with Forward+ArgMax")
	}
}

func TestNetworkAllWeights(t *testing.T) {
	n := buildTinyNet()
	all := n.AllWeights()
	if len(all) != n.TotalWeights() {
		t.Fatalf("AllWeights len = %d", len(all))
	}
	// It must be a snapshot: mutating it must not alter the network.
	before := n.WeightLayers()[0].WeightData()[0]
	all[0] = 999
	if n.WeightLayers()[0].WeightData()[0] != before {
		t.Error("AllWeights aliases live weights")
	}
}

func TestExecFromMatchesFullExec(t *testing.T) {
	n := buildTinyNet()
	x := tensor.New(1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i%7) * 0.1
	}
	full := n.Exec(x)
	want := full[len(full)-1]

	// Perturb conv1's weights, then recompute from its node index only.
	wl := n.WeightLayers()[1].(*Conv2D)
	old := wl.W[0]
	wl.W[0] += 0.5
	fromNode := n.WeightNodeIndex(1)

	cache := n.Exec(x) // fresh reference with fault
	fault := make([]*tensor.Tensor, len(full))
	copy(fault, full)
	got := n.ExecFrom(x, fault, fromNode)
	tensorsClose(t, got, cache[len(cache)-1], 1e-6)

	// Restore and recompute: must match the original output again.
	wl.W[0] = old
	restored := make([]*tensor.Tensor, len(full))
	copy(restored, full)
	got = n.ExecFrom(x, restored, fromNode)
	tensorsClose(t, got, want, 0)
}

func TestExecFromPanicsOnBadCache(t *testing.T) {
	n := buildTinyNet()
	defer func() {
		if recover() == nil {
			t.Error("bad cache did not panic")
		}
	}()
	n.ExecFrom(tensor.New(1, 4, 4), make([]*tensor.Tensor, 1), 0)
}

func TestAddNodeValidatesInputs(t *testing.T) {
	n := NewNetwork("bad")
	defer func() {
		if recover() == nil {
			t.Error("invalid input reference did not panic")
		}
	}()
	n.Add(&ReLU{Label: "r"}, 5)
}

func TestSoftmax(t *testing.T) {
	out := Softmax(tensor.FromSlice([]float32{1, 2, 3}, 3))
	var sum float32
	for _, v := range out.Data {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(out.Data[2] > out.Data[1] && out.Data[1] > out.Data[0]) {
		t.Error("softmax not monotone")
	}
	// Stability: huge scores must not produce NaN.
	out = Softmax(tensor.FromSlice([]float32{1e30, 1e30}, 2))
	if math.IsNaN(float64(out.Data[0])) {
		t.Error("softmax unstable")
	}
}

func BenchmarkConv2D3x3(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D("bench", 16, 16, 3, 1, 1, 1)
	randomize(rng, c.W, 0.2)
	x := tensor.New(1, 16, 32, 32)
	randomize(rng, x.Data, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(nil, x)
	}
}

func BenchmarkConv2DDepthwise(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("bench", 32, 32, 3, 1, 1, 32)
	randomize(rng, c.W, 0.2)
	x := tensor.New(1, 32, 16, 16)
	randomize(rng, x.Data, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(nil, x)
	}
}

func TestIm2colMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		inC, outC, k, stride, pad int
		h, w                      int
		bias                      bool
	}{
		{3, 16, 3, 1, 1, 16, 16, false},
		{16, 32, 3, 2, 1, 16, 16, false},
		{8, 24, 1, 1, 0, 9, 9, false},
		{4, 6, 5, 1, 2, 11, 11, true},
		{2, 8, 3, 1, 0, 7, 5, false},
	}
	for _, tc := range cases {
		c := NewConv2D("t", tc.inC, tc.outC, tc.k, tc.stride, tc.pad, 1)
		randomize(rng, c.W, 0.3)
		if tc.bias {
			c.Bias = make([]float32, tc.outC)
			randomize(rng, c.Bias, 0.3)
		}
		x := tensor.New(1, tc.inC, tc.h, tc.w)
		randomize(rng, x.Data, 1)

		c.Algo = ConvDirect
		direct := c.Forward(nil, x)
		c.Algo = ConvIm2col
		fast := c.Forward(nil, x)
		tensorsClose(t, fast, direct, 1e-4)
	}
}

func TestConvAutoUsesDirectForDepthwise(t *testing.T) {
	c := NewConv2D("dw", 8, 8, 3, 1, 1, 8)
	if c.useIm2col(16, 16) {
		t.Error("depthwise conv must not use im2col")
	}
	c2 := NewConv2D("big", 16, 32, 3, 1, 1, 1)
	if !c2.useIm2col(16, 16) {
		t.Error("large dense conv should use im2col under auto")
	}
	c2.Algo = ConvDirect
	if c2.useIm2col(16, 16) {
		t.Error("explicit direct overridden")
	}
}

func BenchmarkConvDirectVsIm2col(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	for _, algo := range []struct {
		name string
		a    ConvAlgo
	}{{"direct", ConvDirect}, {"im2col", ConvIm2col}} {
		b.Run(algo.name, func(b *testing.B) {
			c := NewConv2D("bench", 16, 16, 3, 1, 1, 1)
			c.Algo = algo.a
			randomize(rng, c.W, 0.2)
			x := tensor.New(1, 16, 32, 32)
			randomize(rng, x.Data, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Forward(nil, x)
			}
		})
	}
}

func TestNetworkSummary(t *testing.T) {
	n := buildTinyNet()
	s := n.Summary()
	for _, want := range []string{"tiny", "conv0", "fc", "L0", "L2", "18 params", "inputs [1 2]"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
