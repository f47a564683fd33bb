//go:build !amd64

package nn

// gemmTaps is the conv GEMM's row kernel (assembly on amd64). The
// explicit float32 conversion rounds each product before the add, so
// hosts that could fuse the multiply-add compute amd64's bits.
func gemmTaps(w []float32, off []int, src, dst []float32) {
	for j, wv := range w {
		s := src[off[j] : off[j]+len(dst)]
		for i, v := range s {
			dst[i] += float32(wv * v)
		}
	}
}
