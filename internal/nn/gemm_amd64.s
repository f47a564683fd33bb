#include "textflag.h"

// func gemmTapsAVX(w []float32, off []int, src, dst []float32)
//
// For j in ascending order, dst[i] += w[j] * src[off[j]+i] for i <
// len(dst). The caller guarantees len(off) >= len(w) and that src holds
// every row read.
//
// Taps go in groups of eight: one pass loads dst[i:i+8], adds the eight
// products to it in tap order, and stores it once. A remainder of four
// to seven taps starts with one group of four, and the last one to
// three taps take a pass each. Eight neighbouring columns share each
// VMULPS/VADDPS on Y registers; a remaining four take one VEX.128 step,
// and the last len(dst)%4 columns take the same steps with
// VMULSS/VADDSS. There is no fused multiply-add: every element sees the
// same roundings in the same order as the Go loop dst[i] += w * v, and
// each operand sits where the compiler puts it for that loop (src·w,
// then product + dst), so the results match bit for bit, NaN payloads
// included: packed ops pick a NaN per lane exactly as the scalar ops do.
//
// Packed loads and stores are VMOVUPS, so neither slice needs any
// alignment. The eight- and four-tap loop heads are aligned to 64 bytes
// and the single-tap loop head to 32, so each loop covers the same
// cache lines and 32-byte fetch windows wherever the linker places the
// function. VZEROUPPER on the way out spares SSE code that follows the
// penalty for dirty upper Y halves.
TEXT ·gemmTapsAVX(SB), NOSPLIT, $0-96
	MOVQ  w_base+0(FP), R8
	MOVQ  w_len+8(FP), BX
	MOVQ  off_base+24(FP), R9
	MOVQ  dst_base+72(FP), DI
	MOVQ  dst_len+80(FP), DX
	TESTQ DX, DX
	JLE   done
	ANDQ  $-8, DX // columns covered by whole Y vectors

	// All fourteen general registers are taken in an eight-tap pass, so
	// its tails compare against len(dst) in memory: after the vector
	// loop, len(dst)-DX = len(dst)&7 columns remain.
oct:
	CMPQ         BX, $8
	JLT          quad
	VBROADCASTSS 0(R8), Y8
	VBROADCASTSS 4(R8), Y9
	VBROADCASTSS 8(R8), Y10
	VBROADCASTSS 12(R8), Y11
	VBROADCASTSS 16(R8), Y12
	VBROADCASTSS 20(R8), Y13
	VBROADCASTSS 24(R8), Y14
	VBROADCASTSS 28(R8), Y15
	MOVQ         src_base+48(FP), SI
	MOVQ         0(R9), R10
	LEAQ         (SI)(R10*4), R10
	MOVQ         8(R9), R11
	LEAQ         (SI)(R11*4), R11
	MOVQ         16(R9), R12
	LEAQ         (SI)(R12*4), R12
	MOVQ         24(R9), R13
	LEAQ         (SI)(R13*4), R13
	MOVQ         32(R9), R14
	LEAQ         (SI)(R14*4), R14
	MOVQ         40(R9), R15
	LEAQ         (SI)(R15*4), R15
	MOVQ         48(R9), CX
	LEAQ         (SI)(CX*4), CX
	MOVQ         56(R9), AX
	LEAQ         (SI)(AX*4), SI
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          octtail
	PCALIGN      $64

octloop:
	VMOVUPS (R10)(AX*4), Y0
	VMULPS  Y8, Y0, Y0
	VADDPS  (DI)(AX*4), Y0, Y0
	VMOVUPS (R11)(AX*4), Y1
	VMULPS  Y9, Y1, Y1
	VADDPS  Y0, Y1, Y0
	VMOVUPS (R12)(AX*4), Y2
	VMULPS  Y10, Y2, Y2
	VADDPS  Y0, Y2, Y0
	VMOVUPS (R13)(AX*4), Y3
	VMULPS  Y11, Y3, Y3
	VADDPS  Y0, Y3, Y0
	VMOVUPS (R14)(AX*4), Y4
	VMULPS  Y12, Y4, Y4
	VADDPS  Y0, Y4, Y0
	VMOVUPS (R15)(AX*4), Y5
	VMULPS  Y13, Y5, Y5
	VADDPS  Y0, Y5, Y0
	VMOVUPS (CX)(AX*4), Y6
	VMULPS  Y14, Y6, Y6
	VADDPS  Y0, Y6, Y0
	VMOVUPS (SI)(AX*4), Y7
	VMULPS  Y15, Y7, Y7
	VADDPS  Y0, Y7, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     octloop

octtail:
	TESTQ   $4, dst_len+80(FP)
	JZ      octscalar
	VMOVUPS (R10)(AX*4), X0
	VMULPS  X8, X0, X0
	VADDPS  (DI)(AX*4), X0, X0
	VMOVUPS (R11)(AX*4), X1
	VMULPS  X9, X1, X1
	VADDPS  X0, X1, X0
	VMOVUPS (R12)(AX*4), X2
	VMULPS  X10, X2, X2
	VADDPS  X0, X2, X0
	VMOVUPS (R13)(AX*4), X3
	VMULPS  X11, X3, X3
	VADDPS  X0, X3, X0
	VMOVUPS (R14)(AX*4), X4
	VMULPS  X12, X4, X4
	VADDPS  X0, X4, X0
	VMOVUPS (R15)(AX*4), X5
	VMULPS  X13, X5, X5
	VADDPS  X0, X5, X0
	VMOVUPS (CX)(AX*4), X6
	VMULPS  X14, X6, X6
	VADDPS  X0, X6, X0
	VMOVUPS (SI)(AX*4), X7
	VMULPS  X15, X7, X7
	VADDPS  X0, X7, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ    $4, AX

octscalar:
	CMPQ AX, dst_len+80(FP)
	JGE  octnext

octscalarloop:
	VMOVSS (R10)(AX*4), X0
	VMULSS X8, X0, X0
	VADDSS (DI)(AX*4), X0, X0
	VMOVSS (R11)(AX*4), X1
	VMULSS X9, X1, X1
	VADDSS X0, X1, X0
	VMOVSS (R12)(AX*4), X2
	VMULSS X10, X2, X2
	VADDSS X0, X2, X0
	VMOVSS (R13)(AX*4), X3
	VMULSS X11, X3, X3
	VADDSS X0, X3, X0
	VMOVSS (R14)(AX*4), X4
	VMULSS X12, X4, X4
	VADDSS X0, X4, X0
	VMOVSS (R15)(AX*4), X5
	VMULSS X13, X5, X5
	VADDSS X0, X5, X0
	VMOVSS (CX)(AX*4), X6
	VMULSS X14, X6, X6
	VADDSS X0, X6, X0
	VMOVSS (SI)(AX*4), X7
	VMULSS X15, X7, X7
	VADDSS X0, X7, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, dst_len+80(FP)
	JLT    octscalarloop

octnext:
	ADDQ $32, R8
	ADDQ $64, R9
	SUBQ $8, BX
	JMP  oct

	// Fewer than eight taps are left: at most one group of four.
quad:
	CMPQ         BX, $4
	JLT          single
	VBROADCASTSS 0(R8), Y8
	VBROADCASTSS 4(R8), Y9
	VBROADCASTSS 8(R8), Y10
	VBROADCASTSS 12(R8), Y11
	MOVQ         src_base+48(FP), SI
	MOVQ         0(R9), R10
	LEAQ         (SI)(R10*4), R10
	MOVQ         8(R9), R11
	LEAQ         (SI)(R11*4), R11
	MOVQ         16(R9), R12
	LEAQ         (SI)(R12*4), R12
	MOVQ         24(R9), R13
	LEAQ         (SI)(R13*4), R13
	MOVQ         dst_len+80(FP), CX
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          quadtail
	PCALIGN      $64

quadloop:
	VMOVUPS (R10)(AX*4), Y0
	VMULPS  Y8, Y0, Y0
	VADDPS  (DI)(AX*4), Y0, Y0
	VMOVUPS (R11)(AX*4), Y1
	VMULPS  Y9, Y1, Y1
	VADDPS  Y0, Y1, Y0
	VMOVUPS (R12)(AX*4), Y2
	VMULPS  Y10, Y2, Y2
	VADDPS  Y0, Y2, Y0
	VMOVUPS (R13)(AX*4), Y3
	VMULPS  Y11, Y3, Y3
	VADDPS  Y0, Y3, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     quadloop

quadtail:
	TESTQ   $4, CX
	JZ      quadscalar
	VMOVUPS (R10)(AX*4), X0
	VMULPS  X8, X0, X0
	VADDPS  (DI)(AX*4), X0, X0
	VMOVUPS (R11)(AX*4), X1
	VMULPS  X9, X1, X1
	VADDPS  X0, X1, X0
	VMOVUPS (R12)(AX*4), X2
	VMULPS  X10, X2, X2
	VADDPS  X0, X2, X0
	VMOVUPS (R13)(AX*4), X3
	VMULPS  X11, X3, X3
	VADDPS  X0, X3, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ    $4, AX

quadscalar:
	CMPQ AX, CX
	JGE  quadnext

quadscalarloop:
	VMOVSS (R10)(AX*4), X0
	VMULSS X8, X0, X0
	VADDSS (DI)(AX*4), X0, X0
	VMOVSS (R11)(AX*4), X1
	VMULSS X9, X1, X1
	VADDSS X0, X1, X0
	VMOVSS (R12)(AX*4), X2
	VMULSS X10, X2, X2
	VADDSS X0, X2, X0
	VMOVSS (R13)(AX*4), X3
	VMULSS X11, X3, X3
	VADDSS X0, X3, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    quadscalarloop

quadnext:
	ADDQ $16, R8
	ADDQ $32, R9
	SUBQ $4, BX

	// The last one to three taps take a pass each.
single:
	TESTQ        BX, BX
	JLE          done
	VBROADCASTSS (R8), Y8
	MOVQ         src_base+48(FP), SI
	MOVQ         (R9), R10
	LEAQ         (SI)(R10*4), R10
	MOVQ         dst_len+80(FP), CX
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          singletail
	PCALIGN      $32

singleloop:
	VMOVUPS (R10)(AX*4), Y0
	VMULPS  Y8, Y0, Y0
	VADDPS  (DI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     singleloop

singletail:
	TESTQ   $4, CX
	JZ      singlescalar
	VMOVUPS (R10)(AX*4), X0
	VMULPS  X8, X0, X0
	VADDPS  (DI)(AX*4), X0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ    $4, AX

singlescalar:
	CMPQ AX, CX
	JGE  singlenext

singlescalarloop:
	VMOVSS (R10)(AX*4), X0
	VMULSS X8, X0, X0
	VADDSS (DI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    singlescalarloop

singlenext:
	ADDQ $4, R8
	ADDQ $8, R9
	DECQ BX
	JMP  single

done:
	VZEROUPPER
	RET

// func avxSupported() bool
//
// CPUID leaf 1 must report AVX (ECX bit 28) and OSXSAVE (bit 27), and
// XCR0 must show that the OS saves both the X and the Y register state
// (bits 1 and 2) across context switches.
TEXT ·avxSupported(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   noavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	SETEQ ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET
