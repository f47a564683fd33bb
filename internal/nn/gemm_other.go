//go:build !amd64

package nn

// gemmRowKernel is gemmRow without the bounds check (assembly on amd64).
func gemmRowKernel(w, src []float32, stride int, dst []float32) {
	for kk, wv := range w {
		if wv == 0 {
			continue
		}
		s := src[kk*stride : kk*stride+len(dst)]
		for i, v := range s {
			dst[i] += wv * v
		}
	}
}
