#include "textflag.h"

// AVX2 kernels behind matMulRowsAVX2 and the int8 GEMMs (simd_amd64.go).
// The float kernels multiply and add with separate VMULPS and VADDPS,
// never a fused multiply-add, so every output element sees the pure-Go
// kernel's roundings in its order (TestAssemblyHasNoFMA guards this).
// Each kernel ends with VZEROUPPER; cpuid and xgetbv touch no vector
// register and run before AVX is known to exist, so they do not.

// tailMask: the 8 float32 lanes loaded from tailMask<>+4*(8-r) are r
// all-ones lanes followed by zeros, the VMASKMOVPS mask for r of 8
// columns (0 <= r <= 8).
DATA tailMask<>+0(SB)/4, $0xffffffff
DATA tailMask<>+4(SB)/4, $0xffffffff
DATA tailMask<>+8(SB)/4, $0xffffffff
DATA tailMask<>+12(SB)/4, $0xffffffff
DATA tailMask<>+16(SB)/4, $0xffffffff
DATA tailMask<>+20(SB)/4, $0xffffffff
DATA tailMask<>+24(SB)/4, $0xffffffff
DATA tailMask<>+28(SB)/4, $0xffffffff
DATA tailMask<>+32(SB)/4, $0
DATA tailMask<>+36(SB)/4, $0
DATA tailMask<>+40(SB)/4, $0
DATA tailMask<>+44(SB)/4, $0
DATA tailMask<>+48(SB)/4, $0
DATA tailMask<>+52(SB)/4, $0
DATA tailMask<>+56(SB)/4, $0
DATA tailMask<>+60(SB)/4, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ROW adds one A value (broadcast from aval) times the tile's 16 B
// values in Y8:Y9 into the row's accumulators: a rounded product, then
// a rounded sum, as the Go kernel's c[j] += float32(a * b).
#define ROW(aval, acc0, acc1) \
	VBROADCASTSS aval, Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, acc0, acc0; \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, acc1, acc1

// ROWS4 is ROW for the four rows of a gemmF32x4AVX2 block.
#define ROWS4 \
	ROW((R12), Y0, Y1); \
	ROW((R12)(R8*1), Y2, Y3); \
	ROW((R12)(R8*2), Y4, Y5); \
	ROW((R12)(R10*1), Y6, Y7)

// SKIP4 jumps to next when the four rows' A values at R12 are all ±0.
#define SKIP4(next) \
	MOVL (R12), AX; \
	ORL  (R12)(R8*1), AX; \
	ORL  (R12)(R8*2), AX; \
	ORL  (R12)(R10*1), AX; \
	ANDL $0x7fffffff, AX; \
	JZ   next

// SKIP1 jumps to next when the row's A value at R12 is ±0.
#define SKIP1(next) \
	MOVL (R12), AX; \
	ANDL $0x7fffffff, AX; \
	JZ   next

// ZERO clears the accumulators Y0..Y7.
#define ZERO \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7

// TILEMASKS sets Y14 and Y15 to the lane masks of the two 8-column
// halves of the last, partial tile of BX < 16 columns. Clobbers AX, CX
// and R12.
#define TILEMASKS \
	MOVQ    $8, AX; \
	CMPQ    BX, AX; \
	CMOVQLT BX, AX; \
	MOVQ    BX, CX; \
	SUBQ    AX, CX; \
	NEGQ    AX; \
	NEGQ    CX; \
	LEAQ    tailMask<>+32(SB), R12; \
	VMOVDQU (R12)(AX*4), Y14; \
	VMOVDQU (R12)(CX*4), Y15

// func gemmF32x4AVX2(c, a, b *float32, k, n int)
//
// Rows 0..3 of C = A×B, where A's rows start at a with stride k, B is
// k×n and C's rows start at c with stride n: matMulRows' four-row block,
// in tiles of 16 columns and a last masked tile of the rest. A step p
// whose four A values are all ±0 is skipped, as in matMulRows.
// Registers: SI a, DX B tile, DI C tile, R8 4k, R10 12k, R9 4n, R11 12n,
// BX columns left, R12/R13 the A and B cursors, CX p, Y14/Y15 the masks.
TEXT ·gemmF32x4AVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), BX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R10
	MOVQ BX, R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R11

x4tile:
	CMPQ  BX, $16
	JLT   x4last
	ZERO
	MOVQ  SI, R12
	MOVQ  DX, R13
	MOVQ  k+24(FP), CX
	TESTQ CX, CX
	JZ    x4store

x4loop:
	SKIP4(x4next)
	VMOVUPS (R13), Y8
	VMOVUPS 32(R13), Y9
	ROWS4

x4next:
	ADDQ $4, R12
	ADDQ R9, R13
	DECQ CX
	JNZ  x4loop

x4store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R9*1)
	VMOVUPS Y3, 32(DI)(R9*1)
	VMOVUPS Y4, (DI)(R9*2)
	VMOVUPS Y5, 32(DI)(R9*2)
	VMOVUPS Y6, (DI)(R11*1)
	VMOVUPS Y7, 32(DI)(R11*1)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $16, BX
	JMP     x4tile

x4last:
	TESTQ BX, BX
	JZ    x4done
	TILEMASKS
	ZERO
	MOVQ  SI, R12
	MOVQ  DX, R13
	MOVQ  k+24(FP), CX
	TESTQ CX, CX
	JZ    x4lastStore

x4lastLoop:
	SKIP4(x4lastNext)
	VMASKMOVPS (R13), Y14, Y8
	VMASKMOVPS 32(R13), Y15, Y9
	ROWS4

x4lastNext:
	ADDQ $4, R12
	ADDQ R9, R13
	DECQ CX
	JNZ  x4lastLoop

x4lastStore:
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	VMASKMOVPS Y2, Y14, (DI)(R9*1)
	VMASKMOVPS Y3, Y15, 32(DI)(R9*1)
	VMASKMOVPS Y4, Y14, (DI)(R9*2)
	VMASKMOVPS Y5, Y15, 32(DI)(R9*2)
	VMASKMOVPS Y6, Y14, (DI)(R11*1)
	VMASKMOVPS Y7, Y15, 32(DI)(R11*1)

x4done:
	VZEROUPPER
	RET

// func gemmF32x1AVX2(c, a, b *float32, k, n int)
//
// One row of C = A×B, matMulRows' single-row tail: a step p whose A
// value is ±0 is skipped. Registers as in gemmF32x4AVX2.
TEXT ·gemmF32x1AVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+32(FP), BX
	MOVQ BX, R9
	SHLQ $2, R9

x1tile:
	CMPQ   BX, $16
	JLT    x1last
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, R12
	MOVQ   DX, R13
	MOVQ   k+24(FP), CX
	TESTQ  CX, CX
	JZ     x1store

x1loop:
	SKIP1(x1next)
	VMOVUPS (R13), Y8
	VMOVUPS 32(R13), Y9
	ROW((R12), Y0, Y1)

x1next:
	ADDQ $4, R12
	ADDQ R9, R13
	DECQ CX
	JNZ  x1loop

x1store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $16, BX
	JMP     x1tile

x1last:
	TESTQ  BX, BX
	JZ     x1done
	TILEMASKS
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, R12
	MOVQ   DX, R13
	MOVQ   k+24(FP), CX
	TESTQ  CX, CX
	JZ     x1lastStore

x1lastLoop:
	SKIP1(x1lastNext)
	VMASKMOVPS (R13), Y14, Y8
	VMASKMOVPS 32(R13), Y15, Y9
	ROW((R12), Y0, Y1)

x1lastNext:
	ADDQ $4, R12
	ADDQ R9, R13
	DECQ CX
	JNZ  x1lastLoop

x1lastStore:
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)

x1done:
	VZEROUPPER
	RET

// DOT4 multiply-adds the 16 zero-extended activation words in xw
// against the 4 weight rows of the chunk at R11 into acc0..acc3.
// VPMADDWD forms each pair of products exactly in int32 (|w·x| <=
// 128·255), so the sums are exact in any order.
#define DOT4(xw, acc0, acc1, acc2, acc3) \
	VPMADDWD (R11), xw, Y11; \
	VPADDD   Y11, acc0, acc0; \
	VPMADDWD 32(R11), xw, Y12; \
	VPADDD   Y12, acc1, acc1; \
	VPMADDWD 64(R11), xw, Y13; \
	VPADDD   Y13, acc2, acc2; \
	VPMADDWD 96(R11), xw, Y14; \
	VPADDD   Y14, acc3, acc3

// func dotInt8x4AVX2(sums *int32, w *int16, x *uint8, k, n int)
//
// For the 4-row weight panel w (16-deep K chunks of 4 rows × 16 int16,
// the last chunk aligned to the column's final 16 bytes) and n uint8
// activation columns of k >= 16 bytes each at x, writes the exact int32
// dot products sums[4j+r] = Σ_p w[r][p]·x[j][p]. Columns go two at a
// time (eight accumulators), an odd last column alone.
// Registers: DI sums, SI w, DX column j, R8 k, BX columns left, R9/R10
// the two column cursors, R11 the weight cursor, R12 k/16, R13 k%16, CX
// chunk counter.
TEXT ·dotInt8x4AVX2(SB), NOSPLIT, $0-40
	MOVQ sums+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), BX
	MOVQ R8, R12
	SHRQ $4, R12
	MOVQ R8, R13
	ANDQ $15, R13

pair:
	CMPQ BX, $2
	JLT  single
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  DX, R9
	LEAQ  (DX)(R8*1), R10
	MOVQ  SI, R11
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    pairTail

pairLoop:
	VPMOVZXBW (R9), Y8
	VPMOVZXBW (R10), Y9
	DOT4(Y8, Y0, Y1, Y2, Y3)
	DOT4(Y9, Y4, Y5, Y6, Y7)
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $128, R11
	DECQ CX
	JNZ  pairLoop

pairTail:
	TESTQ R13, R13
	JZ    pairReduce
	LEAQ  -16(DX)(R8*1), R9
	LEAQ  (R9)(R8*1), R10
	VPMOVZXBW (R9), Y8
	VPMOVZXBW (R10), Y9
	DOT4(Y8, Y0, Y1, Y2, Y3)
	DOT4(Y9, Y4, Y5, Y6, Y7)

pairReduce:
	// Y8 = [r0 r1 r2 r3 | r0 r1 r2 r3] half-sums of column j, Y9 the
	// same for column j+1; fold the halves into [j: r0..r3 | j+1: r0..r3].
	VPHADDD    Y1, Y0, Y8
	VPHADDD    Y3, Y2, Y9
	VPHADDD    Y9, Y8, Y8
	VPHADDD    Y5, Y4, Y9
	VPHADDD    Y7, Y6, Y10
	VPHADDD    Y10, Y9, Y9
	VPERM2I128 $0x20, Y9, Y8, Y10
	VPERM2I128 $0x31, Y9, Y8, Y11
	VPADDD     Y11, Y10, Y10
	VMOVDQU    Y10, (DI)
	ADDQ       $32, DI
	LEAQ       (DX)(R8*2), DX
	SUBQ       $2, BX
	JMP        pair

single:
	TESTQ BX, BX
	JZ    dotDone
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  DX, R9
	MOVQ  SI, R11
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    singleTail

singleLoop:
	VPMOVZXBW (R9), Y8
	DOT4(Y8, Y0, Y1, Y2, Y3)
	ADDQ $16, R9
	ADDQ $128, R11
	DECQ CX
	JNZ  singleLoop

singleTail:
	TESTQ R13, R13
	JZ    singleReduce
	LEAQ  -16(DX)(R8*1), R9
	VPMOVZXBW (R9), Y8
	DOT4(Y8, Y0, Y1, Y2, Y3)

singleReduce:
	VPHADDD      Y1, Y0, Y8
	VPHADDD      Y3, Y2, Y9
	VPHADDD      Y9, Y8, Y8
	VEXTRACTI128 $1, Y8, X9
	VPADDD       X9, X8, X8
	VMOVDQU      X8, (DI)

dotDone:
	VZEROUPPER
	RET
