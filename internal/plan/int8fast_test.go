package plan

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/multiexit"
	"repro/internal/tensor"
)

// FuzzRequantFix31 checks the integer requantization end to end. For
// any int32 accumulator a and positive finite float32 multiplier,
// requantFix31 either rejects the multiplier (its shift would fall
// outside [1, 62]) or binds a pair with mul·2^-shift exactly equal to
// it, and the packed GEMM's fused epilogue, reached with one zero
// weight and a as the bias, returns min(255, ⌊a·mult + ½⌋) for a > 0
// and 0 otherwise, computed exactly with math/big.
func FuzzRequantFix31(f *testing.F) {
	f.Add(int32(1), uint32(0x3a80_0000))             // tiny a, mult 2^-10
	f.Add(int32(1<<24+3), uint32(0x3f80_0000))       // a above 24 bits, mult 1
	f.Add(int32(255), uint32(0x3f00_0001))           // near a rounding tie
	f.Add(int32(math.MaxInt32), uint32(0x28ff_ff01)) // huge a, tiny mult
	f.Add(int32(7), uint32(0x4f00_0000))             // mult 2^31: rejected
	f.Add(int32(-5), uint32(0x3e80_0000))            // negative a clamps to 0
	zero := tensor.PackInt8Panels([]int8{0}, 1, 1)
	f.Fuzz(func(t *testing.T, a int32, multBits uint32) {
		mult := math.Float32frombits(multBits &^ (1 << 31))
		if !(mult > 0) || math.IsInf(float64(mult), 0) {
			t.Skip()
		}
		mul, shift, err := requantFix31(mult)
		if _, exp := math.Frexp(float64(mult)); err != nil {
			if s := 31 - exp; s >= 1 && s <= 62 {
				t.Fatalf("requantFix31(%x) rejected a multiplier with shift %d: %v", multBits, s, err)
			}
			return
		}
		if shift < 1 || shift > 62 {
			t.Fatalf("requantFix31(%x) bound shift %d outside [1, 62]", multBits, shift)
		}
		pow := new(big.Int).Lsh(big.NewInt(1), shift)
		if got, want := new(big.Rat).SetFrac(big.NewInt(int64(mul)), pow), new(big.Rat).SetFloat64(float64(mult)); got.Cmp(want) != 0 {
			t.Fatalf("requantFix31(%x) = (%d, %d): %v, want exactly %v", multBits, mul, shift, got, want)
		}

		var want uint8
		if a > 0 {
			// ⌊a·mul/2^shift + ½⌋ = ⌊(2·a·mul + 2^shift) / 2^(shift+1)⌋.
			q := new(big.Int).Mul(big.NewInt(2*int64(a)), big.NewInt(int64(mul)))
			q.Add(q, pow).Rsh(q, shift+1)
			want = 255
			if q.Cmp(big.NewInt(255)) < 0 {
				want = uint8(q.Int64())
			}
		}
		var dst [1]uint8
		tensor.GemmInt8PackedReq(dst[:], zero, []uint8{255}, []int32{a}, 1, mul, shift)
		if dst[0] != want {
			t.Fatalf("epilogue(a=%d, mult=%x) = %d, want %d", a, multBits, dst[0], want)
		}
	})
}

// compileFastPair compiles the float and int8-fast plans for one
// freshly seeded LeNet-EE with a shared calibration set.
func compileFastPair(t *testing.T, seed uint64) (*multiexit.Network, *Plan, *Plan) {
	t.Helper()
	net := multiexit.LeNetEE(tensor.NewRNG(seed))
	geom, err := InferGeometry(net)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Compile(net, geom)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := CompileInt8Fast(net, geom, Int8Config{Calibration: testImages(4, 21)})
	if err != nil {
		t.Fatal(err)
	}
	return net, fp, ip
}

// TestInt8FastStatisticalParity is the integer backend's accuracy gate:
// per-exit accuracy within ε of the float backend. With the float
// backend's own predictions as labels its accuracy is 1 by
// construction, so the gate reduces to a per-exit agreement rate of at
// least 1-ε — the statistical contract that licenses the packed-kernel
// restructuring.
func TestInt8FastStatisticalParity(t *testing.T) {
	const epsilon = 0.15
	net, fp, ip := compileFastPair(t, 6)
	if !ip.Int8() || fp.Int8() {
		t.Fatal("backend flags wrong")
	}
	fex, fst := fp.NewExec(), fp.NewState()
	iex, ist := ip.NewExec(), ip.NewState()

	imgs := testImages(64, 9)
	for exit := 0; exit < net.NumExits(); exit++ {
		agree := 0
		for _, img := range imgs {
			fex.InferTo(fst, img, exit)
			iex.InferTo(ist, img, exit)
			if fst.Predicted() == ist.Predicted() {
				agree++
			}
			if c := ist.Confidence(); c < 0 || c > 1 {
				t.Fatalf("int8-fast confidence %v out of range", c)
			}
		}
		if acc := float64(agree) / float64(len(imgs)); acc < 1-epsilon {
			t.Errorf("exit %d: int8-fast per-exit accuracy %.3f vs float 1.000, ε=%.2f exceeded", exit, acc, epsilon)
		}
	}
}

// TestInt8FastResumeIdentity: suspend/resume runs the identical integer
// pipeline, so a resume chain must reproduce direct inference exactly.
func TestInt8FastResumeIdentity(t *testing.T) {
	net, _, ip := compileFastPair(t, 8)
	iex, ist := ip.NewExec(), ip.NewState()
	img := testImages(1, 13)[0]

	last := net.NumExits() - 1
	iex.InferTo(ist, img, last)
	direct := append([]float32(nil), ist.Logits()...)

	iex.InferTo(ist, img, 0)
	for exit := 1; exit <= last; exit++ {
		iex.Resume(ist, exit)
	}
	for i, v := range ist.Logits() {
		if v != direct[i] {
			t.Fatalf("int8-fast resume logit[%d] = %v, direct = %v", i, v, direct[i])
		}
	}
}

// TestInt8FastAllocs: the packed pipeline must stay allocation-free in
// the hot loop, like every other backend.
func TestInt8FastAllocs(t *testing.T) {
	_, _, ip := compileFastPair(t, 10)
	iex, ist := ip.NewExec(), ip.NewState()
	img := testImages(1, 17)[0]
	if allocs := testing.AllocsPerRun(20, func() { iex.InferTo(ist, img, 2) }); allocs > 2 {
		t.Errorf("int8-fast InferTo: %v allocs/op, want <= 2", allocs)
	}
}

// TestInt8FastBatchLanes: BatchExec accepts int8-fast plans and its
// per-image results are bit-identical to the single-image executor at
// any lane count.
func TestInt8FastBatchLanes(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := tensor.SetWorkers(workers)
			defer tensor.SetWorkers(prev)

			net, _, ip := compileFastPair(t, 12)
			be := ip.NewBatchExec(8)
			imgs := testImages(8, 19)
			raws := make([][]float32, len(imgs))
			dsts := make([]*State, len(imgs))
			for i, img := range imgs {
				raws[i] = img.Data
				dsts[i] = ip.NewState()
			}
			exit := net.NumExits() - 1
			be.InferBatchTo(dsts, raws, exit)

			iex, ist := ip.NewExec(), ip.NewState()
			for i, img := range imgs {
				iex.InferTo(ist, img, exit)
				for j, v := range ist.Logits() {
					if v != dsts[i].Logits()[j] {
						t.Fatalf("image %d logit[%d]: batched %v vs serial %v", i, j, dsts[i].Logits()[j], v)
					}
				}
			}
		})
	}
}
