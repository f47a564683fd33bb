#include "textflag.h"

// func gemmTaps(w []float32, off []int, src, dst []float32)
//
// For j in ascending order, dst[i] += w[j] * src[off[j]+i] for i <
// len(dst). The caller guarantees len(off) >= len(w) and that src holds
// every row read.
//
// Taps go in groups of four: one pass loads dst[i:i+4], adds the four
// products to it in tap order, and stores it once. The last one to
// three taps take a pass each. Four neighbouring columns share each
// MULPS/ADDPS; the last len(dst)%4 columns take the same steps with
// MULSS/ADDSS. Every element thus sees the same roundings in the same
// order as the Go loop dst[i] += w * v, and each operand sits where the
// compiler puts it for that loop (src·w, then product + dst), so the
// results match bit for bit, NaN payloads included: packed ops pick a
// NaN per lane exactly as the scalar ops do.
//
// Packed loads and stores are MOVUPS, so neither slice needs any
// alignment. The loop heads are aligned to 64 bytes (the quad body is
// 61 bytes), so each loop sits in one cache line and one or two 32-byte
// fetch windows wherever the linker places the function.
TEXT ·gemmTaps(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), R8
	MOVQ w_len+8(FP), BX
	MOVQ off_base+24(FP), R9
	MOVQ src_base+48(FP), SI
	MOVQ dst_base+72(FP), DI
	MOVQ dst_len+80(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX // columns covered by whole vectors
	TESTQ CX, CX
	JLE  done

quad:
	CMPQ   BX, $4
	JLT    single
	MOVSS  0(R8), X4
	SHUFPS $0x00, X4, X4
	MOVSS  4(R8), X5
	SHUFPS $0x00, X5, X5
	MOVSS  8(R8), X6
	SHUFPS $0x00, X6, X6
	MOVSS  12(R8), X7
	SHUFPS $0x00, X7, X7
	MOVQ   0(R9), R10
	LEAQ   (SI)(R10*4), R10
	MOVQ   8(R9), R11
	LEAQ   (SI)(R11*4), R11
	MOVQ   16(R9), R12
	LEAQ   (SI)(R12*4), R12
	MOVQ   24(R9), R13
	LEAQ   (SI)(R13*4), R13
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    quadtail
	PCALIGN $64

quadloop:
	MOVUPS (DI)(AX*4), X0
	MOVUPS (R10)(AX*4), X1
	MULPS  X4, X1
	ADDPS  X0, X1
	MOVUPS (R11)(AX*4), X2
	MULPS  X5, X2
	ADDPS  X1, X2
	MOVUPS (R12)(AX*4), X3
	MULPS  X6, X3
	ADDPS  X2, X3
	MOVUPS (R13)(AX*4), X0
	MULPS  X7, X0
	ADDPS  X3, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    quadloop

quadtail:
	CMPQ AX, CX
	JGE  quadnext

quadscalar:
	MOVSS (DI)(AX*4), X0
	MOVSS (R10)(AX*4), X1
	MULSS X4, X1
	ADDSS X0, X1
	MOVSS (R11)(AX*4), X2
	MULSS X5, X2
	ADDSS X1, X2
	MOVSS (R12)(AX*4), X3
	MULSS X6, X3
	ADDSS X2, X3
	MOVSS (R13)(AX*4), X0
	MULSS X7, X0
	ADDSS X3, X0
	MOVSS X0, (DI)(AX*4)
	INCQ  AX
	CMPQ  AX, CX
	JLT   quadscalar

quadnext:
	ADDQ $16, R8
	ADDQ $32, R9
	SUBQ $4, BX
	JMP  quad

single:
	TESTQ  BX, BX
	JLE    done
	MOVSS  (R8), X4
	SHUFPS $0x00, X4, X4
	MOVQ   (R9), R10
	LEAQ   (SI)(R10*4), R10
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    singletail
	PCALIGN $32

singleloop:
	MOVUPS (R10)(AX*4), X1
	MULPS  X4, X1
	MOVUPS (DI)(AX*4), X0
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    singleloop

singletail:
	CMPQ AX, CX
	JGE  singlenext

singlescalar:
	MOVSS (R10)(AX*4), X1
	MULSS X4, X1
	ADDSS (DI)(AX*4), X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	CMPQ  AX, CX
	JLT   singlescalar

singlenext:
	ADDQ $4, R8
	ADDQ $8, R9
	DECQ BX
	JMP  single

done:
	RET
