package nn

import "cnnsfi/internal/tensor"

// ConvAlgo selects a convolution implementation.
type ConvAlgo uint8

// Convolution algorithms.
const (
	// ConvAuto picks per layer: im2col for non-grouped convolutions with
	// enough work to amortize the gather, direct otherwise.
	ConvAuto ConvAlgo = iota
	// ConvDirect is the straightforward loop nest.
	ConvDirect
	// ConvIm2col gathers input patches into a dense matrix and reduces
	// the convolution to row-times-matrix products (better locality, no
	// per-element padding checks in the inner loop).
	ConvIm2col
)

// useIm2col is the ConvAuto heuristic: grouped (depthwise) convolutions
// always run direct; otherwise im2col pays off once there is enough
// arithmetic per gathered element.
func (c *Conv2D) useIm2col(oh, ow int) bool {
	switch c.Algo {
	case ConvDirect:
		return false
	case ConvIm2col:
		return c.Groups == 1
	default:
		return c.Groups == 1 && c.OutC >= 8 && oh*ow >= 64
	}
}

// patchMatrix gathers the im2col patch matrix of a batch — buf[k][n·cols
// + col], row stride nb·cols, with k the (ic, ky, kx) tap index — from
// the arena when one is supplied, the heap otherwise. Only valid for
// Groups == 1. Padding positions are never written and stay at the zero
// fill, so the GEMM multiplies them by zero; stride-1 rows are gathered
// with span copies.
func (c *Conv2D) patchMatrix(a *tensor.Arena, x *tensor.Tensor, nb, h, w, oh, ow int) []float32 {
	cols := oh * ow
	ksize := c.InC * c.KH * c.KW
	rowStride := nb * cols
	var buf []float32
	if a != nil {
		buf = a.Scratch(ksize * rowStride)
	} else {
		buf = make([]float32, ksize*rowStride)
	}
	imgSz := c.InC * h * w
	for n := 0; n < nb; n++ {
		img := x.Data[n*imgSz : (n+1)*imgSz]
		base := n * cols
		k := 0
		for ic := 0; ic < c.InC; ic++ {
			plane := img[ic*h*w : (ic+1)*h*w]
			for ky := 0; ky < c.KH; ky++ {
				oyLo, oyHi := validRange(h, c.Stride, ky-c.Pad, oh)
				for kx := 0; kx < c.KW; kx++ {
					row := buf[k*rowStride+base : k*rowStride+base+cols]
					oxLo, oxHi := validRange(w, c.Stride, kx-c.Pad, ow)
					if oxLo < oxHi {
						for oy := oyLo; oy < oyHi; oy++ {
							iy := oy*c.Stride + ky - c.Pad
							dst := row[oy*ow+oxLo : oy*ow+oxHi]
							if c.Stride == 1 {
								copy(dst, plane[iy*w+oxLo+kx-c.Pad:])
							} else {
								ix := oxLo*c.Stride + kx - c.Pad
								src := plane[iy*w:]
								for i := range dst {
									dst[i] = src[ix]
									ix += c.Stride
								}
							}
						}
					}
					k++
				}
			}
		}
	}
	return buf
}

// gemmTiles computes output tiles [lo, hi) of the (oc-major) × (image)
// tile grid: tile t is output channel t/nb of image t%nb, so each weight
// row streams across the whole batch before the next row is touched.
// Every output element accumulates k-ascending with zero-weight skips,
// then adds the bias; k is never split across tiles.
func (c *Conv2D) gemmTiles(buf, out []float32, lo, hi, nb, cols int) {
	ksize := c.InC * c.KH * c.KW
	rowStride := nb * cols
	for t := lo; t < hi; t++ {
		oc, n := t/nb, t%nb
		wRow := c.W[oc*ksize : (oc+1)*ksize]
		base := n * cols
		dst := out[(n*c.OutC+oc)*cols : (n*c.OutC+oc+1)*cols]
		gemmRow(wRow, buf[base:], rowStride, dst)
		if c.Bias != nil {
			b := c.Bias[oc]
			for i := range dst {
				dst[i] += b
			}
		}
	}
}

// gemmRow accumulates one output row of the conv GEMM: for every
// non-zero w[kk], in ascending kk, dst[i] += w[kk] * src[kk*stride+i].
// It panics unless src holds every row it reads.
//
// It collects the non-zero weights (NaN is non-zero; ±0 is skipped)
// with their row offsets on the stack, and hands them to gemmTaps a
// chunk at a time. Chunks are whole groups of eight, so only the row's
// last one to seven weights fall to the kernel's smaller groups.
func gemmRow(w, src []float32, stride int, dst []float32) {
	if len(w) == 0 || len(dst) == 0 {
		return
	}
	_ = src[(len(w)-1)*stride+len(dst)-1]
	var taps [gemmChunk]float32
	var offs [gemmChunk]int
	n := 0
	for kk, wv := range w {
		if wv == 0 {
			continue
		}
		taps[n], offs[n] = wv, kk*stride
		n++
		if n == gemmChunk {
			gemmTaps(taps[:], offs[:], src, dst)
			n = 0
		}
	}
	gemmTaps(taps[:n], offs[:n], src, dst)
}

// gemmChunk is how many taps gemmRow collects per gemmTaps call; a
// multiple of eight.
const gemmChunk = 64
