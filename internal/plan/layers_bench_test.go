package plan

import (
	"testing"

	"repro/internal/multiexit"
	"repro/internal/tensor"
)

// stepCase is one compiled step together with the activation the plan
// feeds it for a fixed image.
type stepCase struct {
	st   *step
	in   []float32
	in8  []uint8
	macs int64
}

// stepMACs returns a weighted step's dense multiply-accumulate count
// (0 for pooling and ReLU).
func stepMACs(st *step) int64 {
	switch st.kind {
	case opConv:
		return int64(st.outC) * int64(st.colRows) * int64(st.colCols)
	case opDense:
		return int64(st.in) * int64(st.out)
	}
	return 0
}

// planStepCases walks the plan the way InferTo to the deepest exit and
// every branch do, recording each step's input activation.
func planStepCases(p *Plan, img *tensor.Tensor) []stepCase {
	ex := p.NewExec()
	var cases []stepCase
	if p.int8 {
		cur := make([]uint8, p.geom.Vol())
		quantizeInput(cur, img.Data)
		walk := func(ops []step, cur []uint8) []uint8 {
			for si := range ops {
				st := &ops[si]
				cases = append(cases, stepCase{st: st, in8: append([]uint8(nil), cur[:st.inShape.vol()]...), macs: stepMACs(st)})
				cur = append([]uint8(nil), ex.runInt8Fast(ops[si:si+1], cur)[:st.outShape.vol()]...)
			}
			return cur
		}
		for i := range p.segments {
			cur = walk(p.segments[i], cur)
			walk(p.branches[i], cur)
		}
		return cases
	}
	cur := append([]float32(nil), img.Data...)
	walk := func(ops []step, cur []float32) []float32 {
		for si := range ops {
			st := &ops[si]
			cases = append(cases, stepCase{st: st, in: append([]float32(nil), cur[:st.inShape.vol()]...), macs: stepMACs(st)})
			out, _ := ex.runFloat(ops[si:si+1], cur, false)
			cur = append([]float32(nil), out[:st.outShape.vol()]...)
		}
		return cur
	}
	for i := range p.segments {
		cur = walk(p.segments[i], cur)
		walk(p.branches[i], cur)
	}
	return cases
}

// BenchmarkPlanLayers times every compiled step of LeNet-EE
// (BenchmarkPlanLayers/<backend>/<step>, Conv1 … FC-B32) on the float
// plan and on int8fast, each on the activation the plan feeds it for
// one fixed image, and reports weighted steps' throughput as MACs/ns.
// The per-step split shows which layer an inference's time goes to.
func BenchmarkPlanLayers(b *testing.B) {
	net := multiexit.LeNetEE(tensor.NewRNG(1))
	geom, err := InferGeometry(net)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := Compile(net, geom)
	if err != nil {
		b.Fatal(err)
	}
	ip, err := CompileInt8Fast(net, geom, Int8Config{Calibration: testImages(4, 21)})
	if err != nil {
		b.Fatal(err)
	}
	img := testImages(1, 3)[0]
	for _, bk := range []struct {
		name string
		p    *Plan
	}{{"plan", fp}, {"int8fast", ip}} {
		b.Run(bk.name, func(b *testing.B) {
			ex := bk.p.NewExec()
			for _, sc := range planStepCases(bk.p, img) {
				ops := []step{*sc.st}
				b.Run(sc.st.name, func(b *testing.B) {
					b.ResetTimer()
					if bk.p.int8 {
						for i := 0; i < b.N; i++ {
							ex.runInt8Fast(ops, sc.in8)
						}
					} else {
						for i := 0; i < b.N; i++ {
							ex.runFloat(ops, sc.in, false)
						}
					}
					if sc.macs > 0 {
						b.ReportMetric(float64(sc.macs)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MACs/ns")
					}
				})
			}
		})
	}
}
