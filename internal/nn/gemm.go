package nn

// useAVX selects the row kernel gemmTaps runs. It is set once, at
// init: true on amd64 hosts whose CPU has AVX and whose OS saves the Y
// registers, so they run gemmTapsAVX (gemm_amd64.s); false on amd64
// without AVX and on every other GOARCH, which run gemmTapsGo. Both
// kernels compute the same bits, so the choice never reaches a Result;
// tests flip it to run each kernel the host can.
var useAVX = avxSupported()

// gemmTaps is the conv GEMM's row kernel: for j in ascending order,
// dst[i] += w[j] * src[off[j]+i] for i < len(dst). len(off) >= len(w).
func gemmTaps(w []float32, off []int, src, dst []float32) {
	if useAVX {
		gemmTapsAVX(w, off, src, dst)
		return
	}
	gemmTapsGo(w, off, src, dst)
}

// gemmTapsGo is the portable row kernel: amd64 hosts without AVX and
// every other GOARCH run it, and the AVX kernel matches it bit for bit.
// The explicit float32 conversion rounds each product before the add,
// so hosts that could fuse the multiply-add compute the same bits.
func gemmTapsGo(w []float32, off []int, src, dst []float32) {
	for j, wv := range w {
		s := src[off[j] : off[j]+len(dst)]
		for i, v := range s {
			dst[i] += float32(wv * v)
		}
	}
}
