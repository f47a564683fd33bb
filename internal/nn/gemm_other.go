//go:build !amd64

package nn

// avxSupported is false off amd64: only amd64 has an assembly row
// kernel, so every other GOARCH runs gemmTapsGo.
func avxSupported() bool { return false }

// gemmTapsAVX is never called off amd64 (useAVX stays false).
func gemmTapsAVX(w []float32, off []int, src, dst []float32) {
	panic("nn: no AVX row kernel on this architecture")
}
