package nn

// gemmTaps is the conv GEMM's row kernel, in assembly (gemm_amd64.s):
// four output columns per SSE instruction, and one load and store of
// dst per group of four taps. Its loop heads are pinned with PCALIGN,
// so ResNet-20's speed does not depend on where the linker places the
// code.
//
//go:noescape
func gemmTaps(w []float32, off []int, src, dst []float32)
