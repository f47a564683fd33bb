package nn

// gemmTapsAVX is gemmTaps in AVX assembly (gemm_amd64.s): eight output
// columns per instruction, and one load and store of dst per group of
// eight taps. Its loop heads are pinned with PCALIGN, so ResNet-20's
// speed does not depend on where the linker places the code. It runs
// on amd64 hosts where avxSupported reports true; the rest of amd64
// runs gemmTapsGo.
//
//go:noescape
func gemmTapsAVX(w []float32, off []int, src, dst []float32)

// avxSupported reports whether the CPU has AVX and the OS saves its
// register state (CPUID leaf 1 and XGETBV, in gemm_amd64.s).
func avxSupported() bool
