//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 kernels for the ring layer: the 8-lane counterparts of the
// AVX2 kernels in ntt_amd64.s, evaluating the same lazy-reduction
// formulas lane-wise (so outputs are bit-identical to the scalar and
// AVX2 paths). Shared register conventions:
//
//   Z31 = LO32 (0x00000000FFFFFFFF per lane)
//   Z30 = Q    (modulus broadcast)
//
// and, in the transform kernels only:
//
//   Z29 = 2Q
//
// AVX-512F/DQ remove the two AVX2 workarounds:
//   - conditional subtractions are X = min_u(X, X - c) via VPMINUQ: when
//     X < c the difference wraps above X, so the unsigned minimum is
//     exactly "if X >= c { X -= c }" for every 64-bit X;
//   - low 64-bit products come from one VPMULLQ. The high word of a
//     64x64 product is still assembled from 32-bit VPMULUDQ halves.

// MULHI8 computes OUT = hi64(X*W) per lane. XS must hold X>>32 and WH
// W>>32. Clobbers T0..T2; preserves X, XS, W, WH. With
//   mid  = lo(X)*hi(W) + (lo(X)*lo(W) >> 32)
//   mid2 = hi(X)*lo(W) + lo32(mid)
//   hi64 = hi(X)*hi(W) + mid>>32 + mid2>>32
// neither sum can overflow 64 bits.
#define MULHI8(X, XS, W, WH, T0, T1, T2, OUT) \
	VPMULUDQ W, X, T0      \
	VPMULUDQ WH, X, T1     \
	VPMULUDQ W, XS, T2     \
	VPMULUDQ WH, XS, OUT   \
	VPSRLQ $32, T0, T0     \
	VPADDQ T0, T1, T1      \
	VPANDQ Z31, T1, T0     \
	VPADDQ T0, T2, T2      \
	VPSRLQ $32, T1, T1     \
	VPSRLQ $32, T2, T2     \
	VPADDQ T1, OUT, OUT    \
	VPADDQ T2, OUT, OUT

// LAZYMUL8 computes OUT = X*W - hi64(X*WS)*Q per lane — exactly
// MulModShoupLazy, result in [0, 2q). XS must hold X>>32 and WSH WS>>32.
// Clobbers T0..T2; OUT must differ from X and W.
#define LAZYMUL8(X, XS, W, WS, WSH, T0, T1, T2, OUT) \
	MULHI8(X, XS, WS, WSH, T0, T1, T2, OUT) \
	VPMULLQ Z30, OUT, OUT  \
	VPMULLQ W, X, T0       \
	VPSUBQ OUT, T0, OUT

// CONDSUB2Q8: X -= 2q if X >= 2q. Uses Z29 (2q).
#define CONDSUB2Q8(X, T) \
	VPSUBQ Z29, X, T \
	VPMINUQ T, X, X

// CONDSUBQ8: X -= q if X >= q. Uses Z30 (Q).
#define CONDSUBQ8(X, T) \
	VPSUBQ Z30, X, T \
	VPMINUQ T, X, X

// LOADQ8: broadcast Q and LO32 from the GP register holding q.
#define LOADQ8(QR) \
	VPBROADCASTQ QR, Z30              \
	VPTERNLOGD $0xff, Z31, Z31, Z31   \
	VPSRLQ $32, Z31, Z31

// LOADCONSTS8: LOADQ8 plus 2Q (transform kernels). Clobbers QR.
#define LOADCONSTS8(QR) \
	LOADQ8(QR)             \
	LEAQ (QR)(QR*1), QR    \
	VPBROADCASTQ QR, Z29

// BCASTSHOUP: broadcast a Shoup constant pair from memory and derive
// the high half of the companion.
#define BCASTSHOUP(WMEM, WSMEM, W, WS, WSH) \
	VPBROADCASTQ WMEM, W   \
	VPBROADCASTQ WSMEM, WS \
	VPSRLQ $32, WS, WSH

// LOADMULMOD8: the MULMODCORE8 constants plus 2Q, from the r64, r64s
// and oneS arguments at FP offsets 8, 16, 24. Clobbers QR.
#define LOADMULMOD8(QR) \
	LOADCONSTS8(QR)                                      \
	BCASTSHOUP(r64+8(FP), r64s+16(FP), Z28, Z27, Z26)    \
	VPBROADCASTQ oneS+24(FP), Z25                        \
	VPSRLQ $32, Z25, Z24

// Permutation index tables (qword lane indices; for the two-source
// VPERMI2Q, indices 8..15 select the second table).
DATA idxDup4<>+0(SB)/8, $0
DATA idxDup4<>+8(SB)/8, $0
DATA idxDup4<>+16(SB)/8, $0
DATA idxDup4<>+24(SB)/8, $0
DATA idxDup4<>+32(SB)/8, $1
DATA idxDup4<>+40(SB)/8, $1
DATA idxDup4<>+48(SB)/8, $1
DATA idxDup4<>+56(SB)/8, $1
GLOBL idxDup4<>(SB), RODATA|NOPTR, $64

DATA idxDup2<>+0(SB)/8, $0
DATA idxDup2<>+8(SB)/8, $0
DATA idxDup2<>+16(SB)/8, $1
DATA idxDup2<>+24(SB)/8, $1
DATA idxDup2<>+32(SB)/8, $2
DATA idxDup2<>+40(SB)/8, $2
DATA idxDup2<>+48(SB)/8, $3
DATA idxDup2<>+56(SB)/8, $3
GLOBL idxDup2<>(SB), RODATA|NOPTR, $64

DATA idxEven<>+0(SB)/8, $0
DATA idxEven<>+8(SB)/8, $2
DATA idxEven<>+16(SB)/8, $4
DATA idxEven<>+24(SB)/8, $6
DATA idxEven<>+32(SB)/8, $8
DATA idxEven<>+40(SB)/8, $10
DATA idxEven<>+48(SB)/8, $12
DATA idxEven<>+56(SB)/8, $14
GLOBL idxEven<>(SB), RODATA|NOPTR, $64

DATA idxOdd<>+0(SB)/8, $1
DATA idxOdd<>+8(SB)/8, $3
DATA idxOdd<>+16(SB)/8, $5
DATA idxOdd<>+24(SB)/8, $7
DATA idxOdd<>+32(SB)/8, $9
DATA idxOdd<>+40(SB)/8, $11
DATA idxOdd<>+48(SB)/8, $13
DATA idxOdd<>+56(SB)/8, $15
GLOBL idxOdd<>(SB), RODATA|NOPTR, $64

DATA idxZipLo<>+0(SB)/8, $0
DATA idxZipLo<>+8(SB)/8, $8
DATA idxZipLo<>+16(SB)/8, $1
DATA idxZipLo<>+24(SB)/8, $9
DATA idxZipLo<>+32(SB)/8, $2
DATA idxZipLo<>+40(SB)/8, $10
DATA idxZipLo<>+48(SB)/8, $3
DATA idxZipLo<>+56(SB)/8, $11
GLOBL idxZipLo<>(SB), RODATA|NOPTR, $64

DATA idxZipHi<>+0(SB)/8, $4
DATA idxZipHi<>+8(SB)/8, $12
DATA idxZipHi<>+16(SB)/8, $5
DATA idxZipHi<>+24(SB)/8, $13
DATA idxZipHi<>+32(SB)/8, $6
DATA idxZipHi<>+40(SB)/8, $14
DATA idxZipHi<>+48(SB)/8, $7
DATA idxZipHi<>+56(SB)/8, $15
GLOBL idxZipHi<>(SB), RODATA|NOPTR, $64

DATA idxPairLo<>+0(SB)/8, $0
DATA idxPairLo<>+8(SB)/8, $1
DATA idxPairLo<>+16(SB)/8, $8
DATA idxPairLo<>+24(SB)/8, $9
DATA idxPairLo<>+32(SB)/8, $2
DATA idxPairLo<>+40(SB)/8, $3
DATA idxPairLo<>+48(SB)/8, $10
DATA idxPairLo<>+56(SB)/8, $11
GLOBL idxPairLo<>(SB), RODATA|NOPTR, $64

DATA idxPairHi<>+0(SB)/8, $4
DATA idxPairHi<>+8(SB)/8, $5
DATA idxPairHi<>+16(SB)/8, $12
DATA idxPairHi<>+24(SB)/8, $13
DATA idxPairHi<>+32(SB)/8, $6
DATA idxPairHi<>+40(SB)/8, $7
DATA idxPairHi<>+48(SB)/8, $14
DATA idxPairHi<>+56(SB)/8, $15
GLOBL idxPairHi<>(SB), RODATA|NOPTR, $64

// func nttLayerFwdAVX512(a, psiRev, psiRevS []uint64, grp, t int, q uint64)
//
// One forward butterfly layer: for each group i, twiddle w=psiRev[grp+i],
// spans x/y of length t (t = 4 or a multiple of 8):
//   u = condsub2q(x[j]); v = lazymul(y[j], w); x[j] = u+v; y[j] = u-v+2q
// At t=4 one group fills half a register, so that layer takes groups in
// pairs and gathers both x spans into one register and both y spans
// into another.
TEXT ·nttLayerFwdAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ grp+72(FP), CX
	MOVQ t+80(FP), R10
	MOVQ q+88(FP), AX
	LOADCONSTS8(AX)
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	CMPQ R10, $4
	JEQ fwdlayer8_t4
	SHLQ $3, R10

fwdlayer8_outer:
	BCASTSHOUP((R8), (R9), Z11, Z10, Z9)
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ SI, DX
	LEAQ (SI)(R10*1), DI
	MOVQ R10, BX

fwdlayer8_inner:
	VMOVDQU64 (DX), Z0
	VMOVDQU64 (DI), Z1
	CONDSUB2Q8(Z0, Z8)
	VPSRLQ $32, Z1, Z2
	LAZYMUL8(Z1, Z2, Z11, Z10, Z9, Z3, Z4, Z5, Z7)
	VPADDQ Z7, Z0, Z8
	VMOVDQU64 Z8, (DX)
	VPSUBQ Z7, Z0, Z8
	VPADDQ Z29, Z8, Z8
	VMOVDQU64 Z8, (DI)
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ fwdlayer8_inner

	LEAQ (SI)(R10*2), SI
	DECQ CX
	JNZ fwdlayer8_outer
	VZEROUPPER
	RET

fwdlayer8_t4:
	VMOVDQU64 idxDup4<>(SB), Z28
	SHRQ $1, CX

fwdlayer8_t4loop:
	VMOVDQU (R8), X11
	VMOVDQU (R9), X10
	VPERMQ Z11, Z28, Z11
	VPERMQ Z10, Z28, Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $16, R8
	ADDQ $16, R9
	VMOVDQU64 (SI), Z12
	VMOVDQU64 64(SI), Z13
	VSHUFI64X2 $0x44, Z13, Z12, Z0
	VSHUFI64X2 $0xEE, Z13, Z12, Z1
	CONDSUB2Q8(Z0, Z8)
	VPSRLQ $32, Z1, Z2
	LAZYMUL8(Z1, Z2, Z11, Z10, Z9, Z3, Z4, Z5, Z7)
	VPADDQ Z7, Z0, Z12
	VPSUBQ Z7, Z0, Z13
	VPADDQ Z29, Z13, Z13
	VSHUFI64X2 $0x44, Z13, Z12, Z0
	VSHUFI64X2 $0xEE, Z13, Z12, Z1
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 Z1, 64(SI)
	ADDQ $128, SI
	DECQ CX
	JNZ fwdlayer8_t4loop
	VZEROUPPER
	RET

// func nttFwdFused1AVX512(a []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64)
//
// Fused first double layer of the forward transform over the strided
// quarter-slices x0..x3 (layers grp=1 and grp=2); lane-parallel.
TEXT ·nttFwdFused1AVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ q+72(FP), AX
	LOADCONSTS8(AX)
	BCASTSHOUP(w1+24(FP), w1s+32(FP), Z16, Z17, Z18)
	BCASTSHOUP(w2+40(FP), w2s+48(FP), Z19, Z20, Z21)
	BCASTSHOUP(w3+56(FP), w3s+64(FP), Z22, Z23, Z24)
	SHRQ $2, BX
	SHLQ $3, BX
	MOVQ SI, R8
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

fused1_8_loop:
	VMOVDQU64 (R8), Z0
	VMOVDQU64 (R9), Z1
	VMOVDQU64 (R10), Z2
	VMOVDQU64 (R11), Z3
	CONDSUB2Q8(Z0, Z8)
	CONDSUB2Q8(Z1, Z8)
	VPSRLQ $32, Z2, Z4
	LAZYMUL8(Z2, Z4, Z16, Z17, Z18, Z5, Z6, Z7, Z9)
	VPADDQ Z9, Z0, Z2
	VPSUBQ Z9, Z0, Z4
	VPADDQ Z29, Z4, Z4
	VPSRLQ $32, Z3, Z5
	LAZYMUL8(Z3, Z5, Z16, Z17, Z18, Z6, Z7, Z8, Z9)
	VPADDQ Z9, Z1, Z3
	VPSUBQ Z9, Z1, Z5
	VPADDQ Z29, Z5, Z5
	CONDSUB2Q8(Z2, Z8)
	VPSRLQ $32, Z3, Z6
	LAZYMUL8(Z3, Z6, Z19, Z20, Z21, Z7, Z8, Z9, Z1)
	VPADDQ Z1, Z2, Z0
	VMOVDQU64 Z0, (R8)
	VPSUBQ Z1, Z2, Z0
	VPADDQ Z29, Z0, Z0
	VMOVDQU64 Z0, (R9)
	CONDSUB2Q8(Z4, Z8)
	VPSRLQ $32, Z5, Z6
	LAZYMUL8(Z5, Z6, Z22, Z23, Z24, Z7, Z8, Z9, Z1)
	VPADDQ Z1, Z4, Z0
	VMOVDQU64 Z0, (R10)
	VPSUBQ Z1, Z4, Z0
	VPADDQ Z29, Z0, Z0
	VMOVDQU64 Z0, (R11)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $64, BX
	JNZ fused1_8_loop
	VZEROUPPER
	RET

// func nttFwdTailAVX512(a, psiRev, psiRevS []uint64, q uint64)
//
// Fused final double layer (t=2 then t=1) of the forward transform with
// the [0, q) reduction folded in. Processes four 4-element blocks per
// iteration so every lane carries a distinct butterfly:
//
//   t=2: pairs (e0,e2),(e1,e3) per block against psiRev[quarter+i]
//   t=1: pairs (b0,b1),(b2,b3) against psiRev[half+2i], psiRev[half+2i+1]
TEXT ·nttFwdTailAVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS8(AX)
	MOVQ BX, CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R10
	LEAQ (R9)(CX*8), R11
	MOVQ BX, DX
	SHRQ $1, DX
	LEAQ (R8)(DX*8), R12
	LEAQ (R9)(DX*8), R13
	SHLQ $3, BX
	VMOVDQU64 idxDup2<>(SB), Z28
	VMOVDQU64 idxZipLo<>(SB), Z27
	VMOVDQU64 idxZipHi<>(SB), Z26

fwdtail8_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VSHUFI64X2 $0x88, Z1, Z0, Z2
	VSHUFI64X2 $0xDD, Z1, Z0, Z3
	VMOVDQU (R10), Y10
	VMOVDQU (R11), Y9
	VPERMQ Z10, Z28, Z10
	VPERMQ Z9, Z28, Z9
	VPSRLQ $32, Z9, Z11
	ADDQ $32, R10
	ADDQ $32, R11
	CONDSUB2Q8(Z2, Z8)
	VPSRLQ $32, Z3, Z4
	LAZYMUL8(Z3, Z4, Z10, Z9, Z11, Z5, Z6, Z7, Z0)
	VPADDQ Z0, Z2, Z1
	VPSUBQ Z0, Z2, Z2
	VPADDQ Z29, Z2, Z2
	VPUNPCKLQDQ Z2, Z1, Z3
	VPUNPCKHQDQ Z2, Z1, Z4
	VMOVDQU64 (R12), Z10
	VMOVDQU64 (R13), Z9
	VPSRLQ $32, Z9, Z11
	ADDQ $64, R12
	ADDQ $64, R13
	CONDSUB2Q8(Z3, Z8)
	VPSRLQ $32, Z4, Z5
	LAZYMUL8(Z4, Z5, Z10, Z9, Z11, Z6, Z7, Z8, Z1)
	VPADDQ Z1, Z3, Z0
	VPSUBQ Z1, Z3, Z2
	VPADDQ Z29, Z2, Z2
	CONDSUB2Q8(Z0, Z8)
	CONDSUB2Q8(Z2, Z8)
	CONDSUBQ8(Z0, Z8)
	CONDSUBQ8(Z2, Z8)
	VMOVDQA64 Z27, Z3
	VPERMI2Q Z2, Z0, Z3
	VMOVDQA64 Z26, Z4
	VPERMI2Q Z2, Z0, Z4
	VMOVDQU64 Z3, (SI)
	VMOVDQU64 Z4, 64(SI)
	ADDQ $128, SI
	SUBQ $128, BX
	JNZ fwdtail8_loop
	VZEROUPPER
	RET

// func inttHeadAVX512(a, psiInvRev, psiInvRevS []uint64, q uint64)
//
// Fused first double layer (t=1 then t=2) of the inverse transform.
// Four blocks per iteration, outputs stay lazy in [0, 2q).
TEXT ·inttHeadAVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS8(AX)
	MOVQ BX, CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R10
	LEAQ (R9)(CX*8), R11
	MOVQ BX, DX
	SHRQ $1, DX
	LEAQ (R8)(DX*8), R12
	LEAQ (R9)(DX*8), R13
	SHLQ $3, BX
	VMOVDQU64 idxDup2<>(SB), Z28
	VMOVDQU64 idxEven<>(SB), Z27
	VMOVDQU64 idxOdd<>(SB), Z26
	VMOVDQU64 idxPairLo<>(SB), Z25
	VMOVDQU64 idxPairHi<>(SB), Z24

intthead8_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQA64 Z27, Z2
	VPERMI2Q Z1, Z0, Z2
	VMOVDQA64 Z26, Z3
	VPERMI2Q Z1, Z0, Z3
	VPADDQ Z3, Z2, Z0
	CONDSUB2Q8(Z0, Z8)
	VPSUBQ Z3, Z2, Z1
	VPADDQ Z29, Z1, Z1
	VMOVDQU64 (R12), Z10
	VMOVDQU64 (R13), Z9
	VPSRLQ $32, Z9, Z11
	ADDQ $64, R12
	ADDQ $64, R13
	VPSRLQ $32, Z1, Z4
	LAZYMUL8(Z1, Z4, Z10, Z9, Z11, Z5, Z6, Z7, Z2)
	VPUNPCKLQDQ Z2, Z0, Z3
	VPUNPCKHQDQ Z2, Z0, Z4
	VMOVDQU (R10), Y10
	VMOVDQU (R11), Y9
	VPERMQ Z10, Z28, Z10
	VPERMQ Z9, Z28, Z9
	VPSRLQ $32, Z9, Z11
	ADDQ $32, R10
	ADDQ $32, R11
	VPADDQ Z4, Z3, Z0
	CONDSUB2Q8(Z0, Z8)
	VPSUBQ Z4, Z3, Z1
	VPADDQ Z29, Z1, Z1
	VPSRLQ $32, Z1, Z5
	LAZYMUL8(Z1, Z5, Z10, Z9, Z11, Z6, Z7, Z8, Z2)
	VMOVDQA64 Z25, Z3
	VPERMI2Q Z2, Z0, Z3
	VMOVDQA64 Z24, Z4
	VPERMI2Q Z2, Z0, Z4
	VMOVDQU64 Z3, (SI)
	VMOVDQU64 Z4, 64(SI)
	ADDQ $128, SI
	SUBQ $128, BX
	JNZ intthead8_loop
	VZEROUPPER
	RET

// func inttLayerAVX512(a, psiInvRev, psiInvRevS []uint64, grp, t int, q uint64)
//
// One inverse butterfly layer: r = condsub2q(u+v) -> x[j];
// y[j] = lazymul(u-v+2q, w). t=4 pairs groups as in nttLayerFwdAVX512.
TEXT ·inttLayerAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ grp+72(FP), CX
	MOVQ t+80(FP), R10
	MOVQ q+88(FP), AX
	LOADCONSTS8(AX)
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	CMPQ R10, $4
	JEQ invlayer8_t4
	SHLQ $3, R10

invlayer8_outer:
	BCASTSHOUP((R8), (R9), Z11, Z10, Z9)
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ SI, DX
	LEAQ (SI)(R10*1), DI
	MOVQ R10, BX

invlayer8_inner:
	VMOVDQU64 (DX), Z0
	VMOVDQU64 (DI), Z1
	VPADDQ Z1, Z0, Z2
	CONDSUB2Q8(Z2, Z8)
	VMOVDQU64 Z2, (DX)
	VPSUBQ Z1, Z0, Z2
	VPADDQ Z29, Z2, Z2
	VPSRLQ $32, Z2, Z3
	LAZYMUL8(Z2, Z3, Z11, Z10, Z9, Z4, Z5, Z6, Z7)
	VMOVDQU64 Z7, (DI)
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ invlayer8_inner

	LEAQ (SI)(R10*2), SI
	DECQ CX
	JNZ invlayer8_outer
	VZEROUPPER
	RET

invlayer8_t4:
	VMOVDQU64 idxDup4<>(SB), Z28
	SHRQ $1, CX

invlayer8_t4loop:
	VMOVDQU (R8), X11
	VMOVDQU (R9), X10
	VPERMQ Z11, Z28, Z11
	VPERMQ Z10, Z28, Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $16, R8
	ADDQ $16, R9
	VMOVDQU64 (SI), Z12
	VMOVDQU64 64(SI), Z13
	VSHUFI64X2 $0x44, Z13, Z12, Z0
	VSHUFI64X2 $0xEE, Z13, Z12, Z1
	VPADDQ Z1, Z0, Z12
	CONDSUB2Q8(Z12, Z8)
	VPSUBQ Z1, Z0, Z2
	VPADDQ Z29, Z2, Z2
	VPSRLQ $32, Z2, Z3
	LAZYMUL8(Z2, Z3, Z11, Z10, Z9, Z4, Z5, Z6, Z13)
	VSHUFI64X2 $0x44, Z13, Z12, Z0
	VSHUFI64X2 $0xEE, Z13, Z12, Z1
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 Z1, 64(SI)
	ADDQ $128, SI
	DECQ CX
	JNZ invlayer8_t4loop
	VZEROUPPER
	RET

// func inttTailAVX512(a []uint64, w1, w1s, w2, w2s, w3, w3s, nInv, nInvS, q uint64)
//
// Fused final double layer of the inverse transform (grp=2 then grp=1)
// over the strided quarter-slices, with the 1/N scaling and [0, q)
// reduction folded in. Lane-parallel, no shuffles.
TEXT ·inttTailAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ q+88(FP), AX
	LOADCONSTS8(AX)
	BCASTSHOUP(w1+24(FP), w1s+32(FP), Z16, Z17, Z18)
	BCASTSHOUP(w2+40(FP), w2s+48(FP), Z19, Z20, Z21)
	BCASTSHOUP(w3+56(FP), w3s+64(FP), Z22, Z23, Z24)
	BCASTSHOUP(nInv+72(FP), nInvS+80(FP), Z25, Z26, Z27)
	SHRQ $2, BX
	SHLQ $3, BX
	MOVQ SI, R8
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

intttail8_loop:
	VMOVDQU64 (R8), Z0
	VMOVDQU64 (R9), Z1
	VPADDQ Z1, Z0, Z2
	CONDSUB2Q8(Z2, Z8)
	VPSUBQ Z1, Z0, Z3
	VPADDQ Z29, Z3, Z3
	VMOVDQU64 (R10), Z0
	VMOVDQU64 (R11), Z1
	VPADDQ Z1, Z0, Z4
	CONDSUB2Q8(Z4, Z8)
	VPSUBQ Z1, Z0, Z5
	VPADDQ Z29, Z5, Z5
	VPADDQ Z4, Z2, Z0
	CONDSUB2Q8(Z0, Z8)
	VPSUBQ Z4, Z2, Z2
	VPADDQ Z29, Z2, Z2
	VPSRLQ $32, Z0, Z1
	LAZYMUL8(Z0, Z1, Z25, Z26, Z27, Z4, Z6, Z7, Z11)
	CONDSUBQ8(Z11, Z4)
	VMOVDQU64 Z11, (R8)
	VPSRLQ $32, Z2, Z1
	LAZYMUL8(Z2, Z1, Z16, Z17, Z18, Z0, Z4, Z6, Z8)
	VPSRLQ $32, Z8, Z1
	LAZYMUL8(Z8, Z1, Z25, Z26, Z27, Z0, Z4, Z6, Z7)
	CONDSUBQ8(Z7, Z0)
	VMOVDQU64 Z7, (R10)
	VPSRLQ $32, Z3, Z1
	LAZYMUL8(Z3, Z1, Z19, Z20, Z21, Z0, Z4, Z6, Z7)
	VPSRLQ $32, Z5, Z1
	LAZYMUL8(Z5, Z1, Z22, Z23, Z24, Z0, Z4, Z6, Z8)
	VPADDQ Z8, Z7, Z0
	CONDSUB2Q8(Z0, Z4)
	VPSUBQ Z8, Z7, Z3
	VPADDQ Z29, Z3, Z3
	VPSRLQ $32, Z0, Z1
	LAZYMUL8(Z0, Z1, Z25, Z26, Z27, Z4, Z6, Z7, Z8)
	CONDSUBQ8(Z8, Z0)
	VMOVDQU64 Z8, (R9)
	VPSRLQ $32, Z3, Z1
	LAZYMUL8(Z3, Z1, Z16, Z17, Z18, Z0, Z4, Z6, Z7)
	VPSRLQ $32, Z7, Z1
	LAZYMUL8(Z7, Z1, Z25, Z26, Z27, Z0, Z4, Z6, Z8)
	CONDSUBQ8(Z8, Z0)
	VMOVDQU64 Z8, (R11)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $64, BX
	JNZ intttail8_loop
	VZEROUPPER
	RET

// func addVecAVX512(q uint64, a, b, out []uint64)
TEXT ·addVecAVX512(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADQ8(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ addvec8_done

addvec8_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	VPADDQ Z1, Z0, Z0
	CONDSUBQ8(Z0, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ addvec8_loop

addvec8_done:
	VZEROUPPER
	RET

// func subVecAVX512(q uint64, a, b, out []uint64)
TEXT ·subVecAVX512(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADQ8(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ subvec8_done

subvec8_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	VPSUBQ Z1, Z0, Z0
	VPADDQ Z30, Z0, Z0
	CONDSUBQ8(Z0, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ subvec8_loop

subvec8_done:
	VZEROUPPER
	RET

// func negVecAVX512(q uint64, a, out []uint64)
//
// out = q - a on lanes where a != 0 (K1), zero elsewhere.
TEXT ·negVecAVX512(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	LOADQ8(AX)
	MOVQ a_base+8(FP), SI
	MOVQ out_base+32(FP), DI
	MOVQ out_len+40(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ negvec8_done

negvec8_loop:
	VMOVDQU64 (SI), Z0
	VPTESTMQ Z0, Z0, K1
	VPSUBQ.Z Z0, Z30, K1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ negvec8_loop

negvec8_done:
	VZEROUPPER
	RET

// MULMODCORE8: canonical x*y mod q for Z0=x, Z1=y. The full 128-bit
// product P = P_hi*2^64 + P_lo (high word from VPMULUDQ halves, low
// word from VPMULLQ) is reduced as two independent Shoup products,
//   c = lazymul(P_hi, R64) ≡ P_hi*2^64   (R64 = 2^64 mod q: Z28, Z27, Z26)
//   p = P_lo - hi64(P_lo*ONE_S)*q ≡ P_lo (ONE_S = ShoupPrecomp(1, q): Z25, Z24)
// each in [0, 2q), then f = c + p < 4q is reduced into [0, q). Any
// exact reduction yields the same canonical residue, so this matches
// the scalar MulMod and the AVX2 split reduction bit for bit. Result in
// Z6. Clobbers Z0..Z8. Requires q < 2^61.
#define MULMODCORE8 \
	VPSRLQ $32, Z0, Z2   \
	VPSRLQ $32, Z1, Z3   \
	MULHI8(Z0, Z2, Z1, Z3, Z4, Z5, Z6, Z7) \
	VPMULLQ Z1, Z0, Z8   \
	VPSRLQ $32, Z7, Z0   \
	LAZYMUL8(Z7, Z0, Z28, Z27, Z26, Z1, Z2, Z3, Z5) \
	VPSRLQ $32, Z8, Z0   \
	MULHI8(Z8, Z0, Z25, Z24, Z1, Z2, Z3, Z6) \
	VPMULLQ Z30, Z6, Z6  \
	VPSUBQ Z6, Z8, Z6    \
	VPADDQ Z5, Z6, Z6    \
	CONDSUB2Q8(Z6, Z0)   \
	CONDSUBQ8(Z6, Z0)

// func mulVecAVX512(q, r64, r64s, oneS uint64, a, b, out []uint64)
TEXT ·mulVecAVX512(SB), NOSPLIT, $0-104
	MOVQ q+0(FP), AX
	LOADMULMOD8(AX)
	MOVQ a_base+32(FP), SI
	MOVQ b_base+56(FP), DX
	MOVQ out_base+80(FP), DI
	MOVQ out_len+88(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulvec8_done

mulvec8_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	MULMODCORE8
	VMOVDQU64 Z6, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ mulvec8_loop

mulvec8_done:
	VZEROUPPER
	RET

// func mulAddVecAVX512(q, r64, r64s, oneS uint64, a, b, out []uint64)
TEXT ·mulAddVecAVX512(SB), NOSPLIT, $0-104
	MOVQ q+0(FP), AX
	LOADMULMOD8(AX)
	MOVQ a_base+32(FP), SI
	MOVQ b_base+56(FP), DX
	MOVQ out_base+80(FP), DI
	MOVQ out_len+88(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ muladdvec8_done

muladdvec8_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	MULMODCORE8
	VMOVDQU64 (DI), Z0
	VPADDQ Z6, Z0, Z0
	CONDSUBQ8(Z0, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ muladdvec8_loop

muladdvec8_done:
	VZEROUPPER
	RET

// func mulShoupAddVecAVX512(q uint64, a, b, bs, out []uint64)
TEXT ·mulShoupAddVecAVX512(SB), NOSPLIT, $0-104
	MOVQ q+0(FP), AX
	LOADQ8(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ bs_base+56(FP), R8
	MOVQ out_base+80(FP), DI
	MOVQ out_len+88(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulshoupadd8_done

mulshoupadd8_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z10
	VMOVDQU64 (R8), Z9
	VPSRLQ $32, Z9, Z11
	VPSRLQ $32, Z0, Z1
	LAZYMUL8(Z0, Z1, Z10, Z9, Z11, Z2, Z3, Z4, Z6)
	CONDSUBQ8(Z6, Z0)
	VMOVDQU64 (DI), Z0
	VPADDQ Z6, Z0, Z0
	CONDSUBQ8(Z0, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, R8
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ mulshoupadd8_loop

mulshoupadd8_done:
	VZEROUPPER
	RET

// func mulScalarVecAVX512(q, c, cs uint64, a, out []uint64)
TEXT ·mulScalarVecAVX512(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), AX
	LOADQ8(AX)
	BCASTSHOUP(c+8(FP), cs+16(FP), Z10, Z9, Z11)
	MOVQ a_base+24(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulscalar8_done

mulscalar8_loop:
	VMOVDQU64 (SI), Z0
	VPSRLQ $32, Z0, Z1
	LAZYMUL8(Z0, Z1, Z10, Z9, Z11, Z2, Z3, Z4, Z6)
	CONDSUBQ8(Z6, Z0)
	VMOVDQU64 Z6, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ mulscalar8_loop

mulscalar8_done:
	VZEROUPPER
	RET

// func mulScalarAddVecAVX512(q, c, cs uint64, a, out []uint64)
TEXT ·mulScalarAddVecAVX512(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), AX
	LOADQ8(AX)
	BCASTSHOUP(c+8(FP), cs+16(FP), Z10, Z9, Z11)
	MOVQ a_base+24(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulscalaradd8_done

mulscalaradd8_loop:
	VMOVDQU64 (SI), Z0
	VPSRLQ $32, Z0, Z1
	LAZYMUL8(Z0, Z1, Z10, Z9, Z11, Z2, Z3, Z4, Z6)
	CONDSUBQ8(Z6, Z0)
	VMOVDQU64 (DI), Z0
	VPADDQ Z6, Z0, Z0
	CONDSUBQ8(Z0, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ mulscalaradd8_loop

mulscalaradd8_done:
	VZEROUPPER
	RET

// func mulScalarShiftVecAVX512(q, c, cs, e uint64, a, out []uint64)
TEXT ·mulScalarShiftVecAVX512(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADQ8(AX)
	BCASTSHOUP(c+8(FP), cs+16(FP), Z10, Z9, Z11)
	VPBROADCASTQ e+24(FP), Z12
	MOVQ a_base+32(FP), SI
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulscalarshift8_done

mulscalarshift8_loop:
	VMOVDQU64 (SI), Z0
	VPSRLQ $32, Z0, Z1
	LAZYMUL8(Z0, Z1, Z10, Z9, Z11, Z2, Z3, Z4, Z6)
	CONDSUBQ8(Z6, Z0)
	VPADDQ Z12, Z6, Z6
	CONDSUBQ8(Z6, Z0)
	VMOVDQU64 Z6, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ mulscalarshift8_loop

mulscalarshift8_done:
	VZEROUPPER
	RET

// func rescaleVecAVX512(q, c, cs uint64, a, b, out []uint64)
TEXT ·rescaleVecAVX512(SB), NOSPLIT, $0-96
	MOVQ q+0(FP), AX
	LOADQ8(AX)
	BCASTSHOUP(c+8(FP), cs+16(FP), Z10, Z9, Z11)
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ rescale8_done

rescale8_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	VPSUBQ Z1, Z0, Z0
	VPADDQ Z30, Z0, Z0
	CONDSUBQ8(Z0, Z1)
	VPSRLQ $32, Z0, Z1
	LAZYMUL8(Z0, Z1, Z10, Z9, Z11, Z2, Z3, Z4, Z6)
	CONDSUBQ8(Z6, Z0)
	VMOVDQU64 Z6, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ rescale8_loop

rescale8_done:
	VZEROUPPER
	RET
