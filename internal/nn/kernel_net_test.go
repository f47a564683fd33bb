package nn_test

import (
	"math"
	"testing"

	"cnnsfi/internal/models"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/tensor"
)

// TestKernelsAgreeOnNetworks is the "same Result on every host" check
// at network scale: a golden ResNet-20 and SmallCNN forward, and the
// suffixes recomputed after a NaN, a +Inf and a sign-flipped weight in
// the first, a middle and the last conv, must produce the same
// output bits through the AVX row kernel as through the Go loop that
// hosts without AVX run.
func TestKernelsAgreeOnNetworks(t *testing.T) {
	if !nn.AVXSupported() {
		t.Skip("this host runs only the Go row kernel")
	}
	defer func(v bool) { *nn.UseAVX = v }(*nn.UseAVX)
	for _, tc := range []struct {
		name string
		net  *nn.Network
		x    *tensor.Tensor
	}{
		{"resnet20", models.ResNet20(1), tensor.New(3, 32, 32)},
		{"smallcnn", models.SmallCNN(1), tensor.New(3, 16, 16)},
	} {
		for i := range tc.x.Data {
			tc.x.Data[i] = float32(i%11)*0.1 - 0.5
		}
		*nn.UseAVX = false
		want := outputBits(tc.net, tc.x)
		*nn.UseAVX = true
		got := outputBits(tc.net, tc.x)
		if len(got) != len(want) {
			t.Fatalf("%s: %d outputs on AVX, %d on Go", tc.name, len(got), len(want))
		}
		for k := range want {
			for i := range want[k] {
				if got[k][i] != want[k][i] {
					t.Errorf("%s output %d (0 golden, then faulted suffixes) score %d: AVX %08x, Go %08x",
						tc.name, k, i, got[k][i], want[k][i])
				}
			}
		}
	}
}

// outputBits returns the output score bits of the golden forward of x,
// then of each faulted suffix, restoring every weight after its fault.
func outputBits(net *nn.Network, x *tensor.Tensor) [][]uint32 {
	bits := func(out *tensor.Tensor) []uint32 {
		b := make([]uint32, len(out.Data))
		for i, v := range out.Data {
			b[i] = math.Float32bits(v)
		}
		return b
	}
	golden := net.Exec(x)
	res := [][]uint32{bits(golden[len(golden)-1])}
	layers := net.WeightLayers()
	for _, l := range []int{0, len(layers) / 2, len(layers) - 2} {
		w := layers[l].WeightData()
		i := len(w) / 3
		for _, v := range []float32{math.Float32frombits(0x7fc00001), float32(math.Inf(1)), -w[i]} {
			old := w[i]
			w[i] = v
			cache := append([]*tensor.Tensor(nil), golden...)
			res = append(res, bits(net.ExecFrom(x, cache, net.WeightNodeIndex(l))))
			w[i] = old
		}
	}
	return res
}
