package nn

// gemmRowKernel is gemmRow without the bounds check, in assembly
// (gemm_amd64.s) so that the alignment of the conv GEMM's inner loop,
// and with it ResNet-20's speed, does not depend on where the linker
// places the code.
//
//go:noescape
func gemmRowKernel(w, src []float32, stride int, dst []float32)
