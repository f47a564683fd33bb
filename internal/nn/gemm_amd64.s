#include "textflag.h"

// func gemmRowKernel(w, src []float32, stride int, dst []float32)
//
// For every non-zero w[kk], in ascending kk, dst[i] += w[kk] * src[kk*stride+i]
// for i < len(dst). The caller guarantees src holds every row read.
//
// The inner loop's head is aligned to 32 bytes, so its 27 bytes sit in
// one 32-byte fetch window wherever the linker places the function. Its
// operand order (src·w, then + dst) is the compiler's for
// dst[i] += wv * v, so results match the Go loop bit for bit, NaN
// payloads included.
TEXT ·gemmRowKernel(SB), NOSPLIT, $0-80
	MOVQ    w_base+0(FP), R8
	MOVQ    w_len+8(FP), R9
	MOVQ    src_base+24(FP), SI
	MOVQ    stride+48(FP), R10
	SHLQ    $2, R10
	MOVQ    dst_base+56(FP), DI
	MOVQ    dst_len+64(FP), CX
	XORPS   X2, X2
	TESTQ   CX, CX
	JLE     done
	TESTQ   R9, R9
	JLE     done

row:
	MOVSS   (R8), X0
	UCOMISS X2, X0
	JNE     nonzero
	JPS     nonzero // NaN compares unordered: not zero
	JMP     next

nonzero:
	XORQ    AX, AX
	PCALIGN $32

loop:
	MOVSS   (SI)(AX*4), X1
	MULSS   X0, X1
	ADDSS   (DI)(AX*4), X1
	MOVSS   X1, (DI)(AX*4)
	INCQ    AX
	CMPQ    AX, CX
	JLT     loop

next:
	ADDQ    $4, R8
	ADDQ    R10, SI
	DECQ    R9
	JNZ     row

done:
	RET
