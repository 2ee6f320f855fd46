//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the ring layer. Shared register conventions:
//
//   Y15 = LO32 (0x00000000FFFFFFFF per lane)
//   Y14 = Q    (modulus broadcast)
//
// and, in the transform kernels only:
//
//   Y13 = 2Q
//   Y12 = 2Q-1
//
// AVX2 has no unsigned 64-bit compare and no 64x64->128 multiply, so:
//   - conditional subtractions use signed VPCMPGTQ, sound because
//     vectorOKForModulus gates q < 2^61 and every compared value stays
//     below 2^63;
//   - wide products are assembled from 32-bit VPMULUDQ halves (4 muls
//     plus a carry combine for the high word, 3 for the low word).
//
// LAZYMUL computes OUT = X*W - hi64(X*WS)*Q per lane — exactly
// MulModShoupLazy, result in [0, 2q). XS must hold X>>32. Clobbers
// T0..T3; preserves X, XS, W, WS. Uses Y15 (LO32) and Y14 (Q).
#define LAZYMUL(X, XS, W, WS, T0, T1, T2, T3, OUT) \
	VPSRLQ $32, WS, T3    \
	VPMULUDQ T3, X, T1    \
	VPMULUDQ T3, XS, T3   \
	VPMULUDQ WS, X, T0    \
	VPMULUDQ WS, XS, T2   \
	VPSRLQ $32, T0, T0    \
	VPAND Y15, T1, OUT    \
	VPADDQ OUT, T0, T0    \
	VPAND Y15, T2, OUT    \
	VPADDQ OUT, T0, T0    \
	VPSRLQ $32, T0, T0    \
	VPSRLQ $32, T1, T1    \
	VPSRLQ $32, T2, T2    \
	VPADDQ T1, T3, T3     \
	VPADDQ T2, T3, T3     \
	VPADDQ T0, T3, T3     \
	VPSRLQ $32, W, T1     \
	VPMULUDQ T1, X, T1    \
	VPMULUDQ W, XS, T2    \
	VPADDQ T2, T1, T1     \
	VPSLLQ $32, T1, T1    \
	VPMULUDQ W, X, T0     \
	VPADDQ T1, T0, T0     \
	VPSRLQ $32, T3, T1    \
	VPMULUDQ Y14, T1, T1  \
	VPSRLQ $32, Y14, T2   \
	VPMULUDQ T2, T3, T2   \
	VPADDQ T2, T1, T1     \
	VPSLLQ $32, T1, T1    \
	VPMULUDQ Y14, T3, T3  \
	VPADDQ T3, T1, T1     \
	VPSUBQ T1, T0, OUT

// CONDSUB2Q: X -= 2q if X >= 2q. Uses Y13 (2q), Y12 (2q-1).
#define CONDSUB2Q(X, T) \
	VPCMPGTQ Y12, X, T \
	VPAND Y13, T, T    \
	VPSUBQ T, X, X

// CONDSUBQ: X -= q if X >= q. Uses Y14 (Q) only.
#define CONDSUBQ(X, T) \
	VPCMPGTQ X, Y14, T \
	VPANDN Y14, T, T   \
	VPSUBQ T, X, X

// LOADCONSTS: broadcast Q/2Q/2Q-1/LO32 from the GP register holding q.
// Clobbers QR and X0.
#define LOADCONSTS(QR) \
	MOVQ QR, X0            \
	VPBROADCASTQ X0, Y14   \
	LEAQ (QR)(QR*1), QR    \
	MOVQ QR, X0            \
	VPBROADCASTQ X0, Y13   \
	DECQ QR                \
	MOVQ QR, X0            \
	VPBROADCASTQ X0, Y12   \
	VPCMPEQD Y15, Y15, Y15 \
	VPSRLQ $32, Y15, Y15

// LOADQLO32: broadcast Q and LO32 only (pointwise kernels).
#define LOADQLO32(QR) \
	MOVQ QR, X0            \
	VPBROADCASTQ X0, Y14   \
	VPCMPEQD Y15, Y15, Y15 \
	VPSRLQ $32, Y15, Y15

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func nttLayerFwdAVX2(a, psiRev, psiRevS []uint64, grp, t int, q uint64)
//
// One forward butterfly layer: for each group i, twiddle w=psiRev[grp+i],
// spans x/y of length t (t >= 4, multiple of 4):
//   u = condsub2q(x[j]); v = lazymul(y[j], w); x[j] = u+v; y[j] = u-v+2q
TEXT ·nttLayerFwdAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ grp+72(FP), CX
	MOVQ t+80(FP), R10
	MOVQ q+88(FP), AX
	LOADCONSTS(AX)
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	SHLQ $3, R10

fwdlayer_outer:
	VPBROADCASTQ (R8), Y11
	VPBROADCASTQ (R9), Y10
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ SI, DX
	LEAQ (SI)(R10*1), DI
	MOVQ R10, BX

fwdlayer_inner:
	VMOVDQU (DX), Y0
	VMOVDQU (DI), Y1
	CONDSUB2Q(Y0, Y8)
	VPSRLQ $32, Y1, Y2
	LAZYMUL(Y1, Y2, Y11, Y10, Y3, Y4, Y5, Y6, Y7)
	VPADDQ Y7, Y0, Y8
	VMOVDQU Y8, (DX)
	VPSUBQ Y7, Y0, Y8
	VPADDQ Y13, Y8, Y8
	VMOVDQU Y8, (DI)
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ fwdlayer_inner

	LEAQ (SI)(R10*2), SI
	DECQ CX
	JNZ fwdlayer_outer
	VZEROUPPER
	RET

// func nttFwdFused1AVX2(a []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64)
//
// Fused first double layer of the forward transform: the strided
// quarter-slices x0..x3 meet in layers grp=1 and grp=2; every lane is
// an independent j, so no shuffles are needed.
TEXT ·nttFwdFused1AVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ q+72(FP), AX
	LOADCONSTS(AX)
	SHRQ $2, BX
	SHLQ $3, BX
	MOVQ SI, R8
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

fused1_loop:
	VMOVDQU (R8), Y0
	VMOVDQU (R9), Y1
	VMOVDQU (R10), Y2
	VMOVDQU (R11), Y3
	CONDSUB2Q(Y0, Y8)
	CONDSUB2Q(Y1, Y8)
	VPBROADCASTQ w1+24(FP), Y11
	VPBROADCASTQ w1s+32(FP), Y10
	VPSRLQ $32, Y2, Y4
	LAZYMUL(Y2, Y4, Y11, Y10, Y5, Y6, Y7, Y8, Y9)
	VPADDQ Y9, Y0, Y2
	VPSUBQ Y9, Y0, Y4
	VPADDQ Y13, Y4, Y4
	VPSRLQ $32, Y3, Y5
	LAZYMUL(Y3, Y5, Y11, Y10, Y6, Y7, Y8, Y0, Y9)
	VPADDQ Y9, Y1, Y3
	VPSUBQ Y9, Y1, Y5
	VPADDQ Y13, Y5, Y5
	CONDSUB2Q(Y2, Y8)
	VPBROADCASTQ w2+40(FP), Y11
	VPBROADCASTQ w2s+48(FP), Y10
	VPSRLQ $32, Y3, Y6
	LAZYMUL(Y3, Y6, Y11, Y10, Y7, Y8, Y9, Y0, Y1)
	VPADDQ Y1, Y2, Y0
	VMOVDQU Y0, (R8)
	VPSUBQ Y1, Y2, Y0
	VPADDQ Y13, Y0, Y0
	VMOVDQU Y0, (R9)
	CONDSUB2Q(Y4, Y8)
	VPBROADCASTQ w3+56(FP), Y11
	VPBROADCASTQ w3s+64(FP), Y10
	VPSRLQ $32, Y5, Y6
	LAZYMUL(Y5, Y6, Y11, Y10, Y7, Y8, Y9, Y0, Y1)
	VPADDQ Y1, Y4, Y0
	VMOVDQU Y0, (R10)
	VPSUBQ Y1, Y4, Y0
	VPADDQ Y13, Y0, Y0
	VMOVDQU Y0, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, BX
	JNZ fused1_loop
	VZEROUPPER
	RET

// func nttFwdTailAVX2(a, psiRev, psiRevS []uint64, q uint64)
//
// Fused final double layer (t=2 then t=1) of the forward transform with
// the [0, q) reduction folded in. Processes two 4-element blocks per
// iteration so every lane carries a distinct butterfly:
//
//   t=2: pairs (a0,a2),(a1,a3) per block against psiRev[quarter+i]
//   t=1: pairs (b0,b1),(b2,b3) against psiRev[half+2i], psiRev[half+2i+1]
TEXT ·nttFwdTailAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS(AX)
	MOVQ BX, CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R10
	LEAQ (R9)(CX*8), R11
	MOVQ BX, DX
	SHRQ $1, DX
	LEAQ (R8)(DX*8), R12
	LEAQ (R9)(DX*8), R13
	SHLQ $3, BX

fwdtail_loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPERM2I128 $0x20, Y1, Y0, Y2
	VPERM2I128 $0x31, Y1, Y0, Y3
	VPERMQ $0x50, (R10), Y10
	VPERMQ $0x50, (R11), Y9
	ADDQ $16, R10
	ADDQ $16, R11
	CONDSUB2Q(Y2, Y8)
	VPSRLQ $32, Y3, Y4
	LAZYMUL(Y3, Y4, Y10, Y9, Y5, Y6, Y7, Y8, Y0)
	VPADDQ Y0, Y2, Y1
	VPSUBQ Y0, Y2, Y2
	VPADDQ Y13, Y2, Y2
	VPUNPCKLQDQ Y2, Y1, Y3
	VPUNPCKHQDQ Y2, Y1, Y4
	VMOVDQU (R12), Y10
	VMOVDQU (R13), Y9
	ADDQ $32, R12
	ADDQ $32, R13
	CONDSUB2Q(Y3, Y8)
	VPSRLQ $32, Y4, Y5
	LAZYMUL(Y4, Y5, Y10, Y9, Y6, Y7, Y8, Y0, Y1)
	VPADDQ Y1, Y3, Y0
	VPSUBQ Y1, Y3, Y2
	VPADDQ Y13, Y2, Y2
	CONDSUB2Q(Y0, Y8)
	CONDSUB2Q(Y2, Y8)
	CONDSUBQ(Y0, Y8)
	CONDSUBQ(Y2, Y8)
	VPUNPCKLQDQ Y2, Y0, Y3
	VPUNPCKHQDQ Y2, Y0, Y4
	VPERM2I128 $0x20, Y4, Y3, Y0
	VPERM2I128 $0x31, Y4, Y3, Y1
	VMOVDQU Y0, (SI)
	VMOVDQU Y1, 32(SI)
	ADDQ $64, SI
	SUBQ $64, BX
	JNZ fwdtail_loop
	VZEROUPPER
	RET

// func inttHeadAVX2(a, psiInvRev, psiInvRevS []uint64, q uint64)
//
// Fused first double layer (t=1 then t=2) of the inverse transform.
// Two blocks per iteration, outputs stay lazy in [0, 2q).
TEXT ·inttHeadAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS(AX)
	MOVQ BX, CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R10
	LEAQ (R9)(CX*8), R11
	MOVQ BX, DX
	SHRQ $1, DX
	LEAQ (R8)(DX*8), R12
	LEAQ (R9)(DX*8), R13
	SHLQ $3, BX

intthead_loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPUNPCKLQDQ Y1, Y0, Y2
	VPUNPCKHQDQ Y1, Y0, Y3
	VPADDQ Y3, Y2, Y0
	CONDSUB2Q(Y0, Y8)
	VPSUBQ Y3, Y2, Y1
	VPADDQ Y13, Y1, Y1
	VPERMQ $0xD8, (R12), Y10
	VPERMQ $0xD8, (R13), Y9
	ADDQ $32, R12
	ADDQ $32, R13
	VPSRLQ $32, Y1, Y4
	LAZYMUL(Y1, Y4, Y10, Y9, Y5, Y6, Y7, Y8, Y2)
	VPUNPCKLQDQ Y2, Y0, Y3
	VPUNPCKHQDQ Y2, Y0, Y4
	VPERM2I128 $0x20, Y4, Y3, Y0
	VPERM2I128 $0x31, Y4, Y3, Y1
	VPERMQ $0x50, (R10), Y10
	VPERMQ $0x50, (R11), Y9
	ADDQ $16, R10
	ADDQ $16, R11
	VPADDQ Y1, Y0, Y2
	CONDSUB2Q(Y2, Y8)
	VPSUBQ Y1, Y0, Y3
	VPADDQ Y13, Y3, Y3
	VPSRLQ $32, Y3, Y4
	LAZYMUL(Y3, Y4, Y10, Y9, Y5, Y6, Y7, Y8, Y0)
	VPERM2I128 $0x20, Y0, Y2, Y1
	VPERM2I128 $0x31, Y0, Y2, Y3
	VMOVDQU Y1, (SI)
	VMOVDQU Y3, 32(SI)
	ADDQ $64, SI
	SUBQ $64, BX
	JNZ intthead_loop
	VZEROUPPER
	RET

// func inttLayerAVX2(a, psiInvRev, psiInvRevS []uint64, grp, t int, q uint64)
//
// One inverse butterfly layer: r = condsub2q(u+v) -> x[j];
// y[j] = lazymul(u-v+2q, w).
TEXT ·inttLayerAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ grp+72(FP), CX
	MOVQ t+80(FP), R10
	MOVQ q+88(FP), AX
	LOADCONSTS(AX)
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	SHLQ $3, R10

invlayer_outer:
	VPBROADCASTQ (R8), Y11
	VPBROADCASTQ (R9), Y10
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ SI, DX
	LEAQ (SI)(R10*1), DI
	MOVQ R10, BX

invlayer_inner:
	VMOVDQU (DX), Y0
	VMOVDQU (DI), Y1
	VPADDQ Y1, Y0, Y2
	CONDSUB2Q(Y2, Y8)
	VMOVDQU Y2, (DX)
	VPSUBQ Y1, Y0, Y2
	VPADDQ Y13, Y2, Y2
	VPSRLQ $32, Y2, Y3
	LAZYMUL(Y2, Y3, Y11, Y10, Y4, Y5, Y6, Y7, Y8)
	VMOVDQU Y8, (DI)
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ invlayer_inner

	LEAQ (SI)(R10*2), SI
	DECQ CX
	JNZ invlayer_outer
	VZEROUPPER
	RET

// func inttTailAVX2(a []uint64, w1, w1s, w2, w2s, w3, w3s, nInv, nInvS, q uint64)
//
// Fused final double layer of the inverse transform (grp=2 then grp=1)
// over the strided quarter-slices, with the 1/N scaling and [0, q)
// reduction folded in. Lane-parallel, no shuffles.
TEXT ·inttTailAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ q+88(FP), AX
	LOADCONSTS(AX)
	SHRQ $2, BX
	SHLQ $3, BX
	MOVQ SI, R8
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

intttail_loop:
	VMOVDQU (R8), Y0
	VMOVDQU (R9), Y1
	VPADDQ Y1, Y0, Y2
	CONDSUB2Q(Y2, Y8)
	VPSUBQ Y1, Y0, Y3
	VPADDQ Y13, Y3, Y3
	VMOVDQU (R10), Y0
	VMOVDQU (R11), Y1
	VPADDQ Y1, Y0, Y4
	CONDSUB2Q(Y4, Y8)
	VPSUBQ Y1, Y0, Y5
	VPADDQ Y13, Y5, Y5
	VPADDQ Y4, Y2, Y0
	CONDSUB2Q(Y0, Y8)
	VPSUBQ Y4, Y2, Y2
	VPADDQ Y13, Y2, Y2
	VPBROADCASTQ nInv+72(FP), Y10
	VPBROADCASTQ nInvS+80(FP), Y9
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y4, Y6, Y7, Y8, Y11)
	CONDSUBQ(Y11, Y4)
	VMOVDQU Y11, (R8)
	VPBROADCASTQ w1+24(FP), Y10
	VPBROADCASTQ w1s+32(FP), Y9
	VPSRLQ $32, Y2, Y1
	LAZYMUL(Y2, Y1, Y10, Y9, Y0, Y4, Y6, Y7, Y8)
	VPBROADCASTQ nInv+72(FP), Y10
	VPBROADCASTQ nInvS+80(FP), Y9
	VPSRLQ $32, Y8, Y1
	LAZYMUL(Y8, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y7)
	CONDSUBQ(Y7, Y0)
	VMOVDQU Y7, (R10)
	VPBROADCASTQ w2+40(FP), Y10
	VPBROADCASTQ w2s+48(FP), Y9
	VPSRLQ $32, Y3, Y1
	LAZYMUL(Y3, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y7)
	VPBROADCASTQ w3+56(FP), Y10
	VPBROADCASTQ w3s+64(FP), Y9
	VPSRLQ $32, Y5, Y1
	LAZYMUL(Y5, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y8)
	VPADDQ Y8, Y7, Y0
	CONDSUB2Q(Y0, Y2)
	VPSUBQ Y8, Y7, Y3
	VPADDQ Y13, Y3, Y3
	VPBROADCASTQ nInv+72(FP), Y10
	VPBROADCASTQ nInvS+80(FP), Y9
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y2, Y4, Y6, Y7, Y8)
	CONDSUBQ(Y8, Y0)
	VMOVDQU Y8, (R9)
	VPBROADCASTQ w1+24(FP), Y10
	VPBROADCASTQ w1s+32(FP), Y9
	VPSRLQ $32, Y3, Y1
	LAZYMUL(Y3, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y7)
	VPBROADCASTQ nInv+72(FP), Y10
	VPBROADCASTQ nInvS+80(FP), Y9
	VPSRLQ $32, Y7, Y1
	LAZYMUL(Y7, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y8)
	CONDSUBQ(Y8, Y0)
	VMOVDQU Y8, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, BX
	JNZ intttail_loop
	VZEROUPPER
	RET

// func addVecAVX2(q uint64, a, b, out []uint64)
TEXT ·addVecAVX2(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ addvec_done

addvec_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPADDQ Y1, Y0, Y0
	CONDSUBQ(Y0, Y1)
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ addvec_loop

addvec_done:
	VZEROUPPER
	RET

// func subVecAVX2(q uint64, a, b, out []uint64)
TEXT ·subVecAVX2(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ subvec_done

subvec_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPSUBQ Y1, Y0, Y0
	VPADDQ Y14, Y0, Y0
	CONDSUBQ(Y0, Y1)
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ subvec_loop

subvec_done:
	VZEROUPPER
	RET

// func negVecAVX2(q uint64, a, out []uint64)
TEXT ·negVecAVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	MOVQ a_base+8(FP), SI
	MOVQ out_base+32(FP), DI
	MOVQ out_len+40(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ negvec_done
	VPXOR Y2, Y2, Y2

negvec_loop:
	VMOVDQU (SI), Y0
	VPSUBQ Y0, Y14, Y1
	VPCMPEQQ Y2, Y0, Y3
	VPANDN Y1, Y3, Y1
	VMOVDQU Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ negvec_loop

negvec_done:
	VZEROUPPER
	RET

// MULMODCORE: canonical x*y mod q for Y0=x, Y1=y via the full 128-bit
// product and a 2^32-radix split reduction: with R32 = 2^32 mod q
// (Y13, Shoup companion Y12),
//   c = lazymul(P_hi, R32); d = c + hi32(P_lo); e = lazymul(d, R32);
//   f = e + lo32(P_lo) < 3q; two conditional subtractions by q.
// Result in Y6. Clobbers Y0..Y9. Requires 2^32 < q < 2^61.
#define MULMODCORE \
	VPSRLQ $32, Y0, Y2   \
	VPSRLQ $32, Y1, Y3   \
	VPMULUDQ Y1, Y0, Y4  \
	VPMULUDQ Y3, Y0, Y5  \
	VPMULUDQ Y1, Y2, Y6  \
	VPMULUDQ Y3, Y2, Y7  \
	VPADDQ Y6, Y5, Y8    \
	VPSLLQ $32, Y8, Y8   \
	VPADDQ Y4, Y8, Y8    \
	VPSRLQ $32, Y4, Y4   \
	VPAND Y15, Y5, Y9    \
	VPADDQ Y9, Y4, Y4    \
	VPAND Y15, Y6, Y9    \
	VPADDQ Y9, Y4, Y4    \
	VPSRLQ $32, Y4, Y4   \
	VPSRLQ $32, Y5, Y5   \
	VPSRLQ $32, Y6, Y6   \
	VPADDQ Y5, Y7, Y7    \
	VPADDQ Y6, Y7, Y7    \
	VPADDQ Y4, Y7, Y7    \
	VPSRLQ $32, Y7, Y0   \
	LAZYMUL(Y7, Y0, Y13, Y12, Y1, Y2, Y3, Y4, Y5) \
	VPSRLQ $32, Y8, Y0   \
	VPADDQ Y0, Y5, Y5    \
	VPSRLQ $32, Y5, Y0   \
	LAZYMUL(Y5, Y0, Y13, Y12, Y1, Y2, Y3, Y4, Y6) \
	VPAND Y15, Y8, Y0    \
	VPADDQ Y0, Y6, Y6    \
	CONDSUBQ(Y6, Y0)     \
	CONDSUBQ(Y6, Y0)

// func mulVecAVX2(q, r32, r32s uint64, a, b, out []uint64)
TEXT ·mulVecAVX2(SB), NOSPLIT, $0-96
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ r32+8(FP), Y13
	VPBROADCASTQ r32s+16(FP), Y12
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulvec_done

mulvec_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	MULMODCORE
	VMOVDQU Y6, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ mulvec_loop

mulvec_done:
	VZEROUPPER
	RET

// func mulAddVecAVX2(q, r32, r32s uint64, a, b, out []uint64)
TEXT ·mulAddVecAVX2(SB), NOSPLIT, $0-96
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ r32+8(FP), Y13
	VPBROADCASTQ r32s+16(FP), Y12
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ muladdvec_done

muladdvec_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	MULMODCORE
	VMOVDQU (DI), Y0
	VPADDQ Y6, Y0, Y0
	CONDSUBQ(Y0, Y1)
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ muladdvec_loop

muladdvec_done:
	VZEROUPPER
	RET

// func mulShoupAddVecAVX2(q uint64, a, b, bs, out []uint64)
TEXT ·mulShoupAddVecAVX2(SB), NOSPLIT, $0-104
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ bs_base+56(FP), R8
	MOVQ out_base+80(FP), DI
	MOVQ out_len+88(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulshoupadd_done

mulshoupadd_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y10
	VMOVDQU (R8), Y9
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y2, Y3, Y4, Y5, Y6)
	CONDSUBQ(Y6, Y0)
	VMOVDQU (DI), Y0
	VPADDQ Y6, Y0, Y0
	CONDSUBQ(Y0, Y1)
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ mulshoupadd_loop

mulshoupadd_done:
	VZEROUPPER
	RET

// func mulScalarVecAVX2(q, c, cs uint64, a, out []uint64)
TEXT ·mulScalarVecAVX2(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ c+8(FP), Y10
	VPBROADCASTQ cs+16(FP), Y9
	MOVQ a_base+24(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulscalar_done

mulscalar_loop:
	VMOVDQU (SI), Y0
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y2, Y3, Y4, Y5, Y6)
	CONDSUBQ(Y6, Y0)
	VMOVDQU Y6, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ mulscalar_loop

mulscalar_done:
	VZEROUPPER
	RET

// func mulScalarAddVecAVX2(q, c, cs uint64, a, out []uint64)
TEXT ·mulScalarAddVecAVX2(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ c+8(FP), Y10
	VPBROADCASTQ cs+16(FP), Y9
	MOVQ a_base+24(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulscalaradd_done

mulscalaradd_loop:
	VMOVDQU (SI), Y0
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y2, Y3, Y4, Y5, Y6)
	CONDSUBQ(Y6, Y0)
	VMOVDQU (DI), Y0
	VPADDQ Y6, Y0, Y0
	CONDSUBQ(Y0, Y1)
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ mulscalaradd_loop

mulscalaradd_done:
	VZEROUPPER
	RET

// func mulScalarShiftVecAVX2(q, c, cs, e uint64, a, out []uint64)
TEXT ·mulScalarShiftVecAVX2(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ c+8(FP), Y10
	VPBROADCASTQ cs+16(FP), Y9
	VPBROADCASTQ e+24(FP), Y8
	MOVQ a_base+32(FP), SI
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulscalarshift_done

mulscalarshift_loop:
	VMOVDQU (SI), Y0
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y2, Y3, Y4, Y5, Y6)
	CONDSUBQ(Y6, Y0)
	VPADDQ Y8, Y6, Y6
	CONDSUBQ(Y6, Y0)
	VMOVDQU Y6, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ mulscalarshift_loop

mulscalarshift_done:
	VZEROUPPER
	RET

// func rescaleVecAVX2(q, c, cs uint64, a, b, out []uint64)
TEXT ·rescaleVecAVX2(SB), NOSPLIT, $0-96
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ c+8(FP), Y10
	VPBROADCASTQ cs+16(FP), Y9
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ rescale_done

rescale_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPSUBQ Y1, Y0, Y0
	VPADDQ Y14, Y0, Y0
	CONDSUBQ(Y0, Y1)
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y2, Y3, Y4, Y5, Y6)
	CONDSUBQ(Y6, Y0)
	VMOVDQU Y6, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ rescale_loop

rescale_done:
	VZEROUPPER
	RET
