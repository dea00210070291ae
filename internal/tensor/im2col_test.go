package tensor

import (
	"math"
	"testing"
)

func TestConvGeomDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	if g.OutH() != 28 || g.OutW() != 28 {
		t.Fatalf("valid 5x5: %dx%d, want 28x28", g.OutH(), g.OutW())
	}
	g.PadH, g.PadW = 2, 2
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same 5x5: %dx%d, want 32x32", g.OutH(), g.OutW())
	}
	g.StrideH, g.StrideW = 2, 2
	if g.OutH() != 16 || g.OutW() != 16 {
		t.Fatalf("strided: %dx%d, want 16x16", g.OutH(), g.OutW())
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	for _, bad := range []struct {
		what string
		g    ConvGeom
	}{
		{"kernel larger than the input with no padding",
			ConvGeom{InC: 1, InH: 4, InW: 4, KH: 9, KW: 3, StrideH: 1, StrideW: 1}},
		{"zero stride", ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 0, StrideW: 1}},
		// Truncating (1-2)/2 toward zero would count one output column.
		{"kernel wider than the input at stride 2",
			ConvGeom{InC: 1, InH: 1, InW: 1, KH: 1, KW: 2, StrideH: 1, StrideW: 2}},
	} {
		if err := bad.g.Validate(); err == nil {
			t.Errorf("%s accepted: %+v (out %dx%d)", bad.what, bad.g, bad.g.OutH(), bad.g.OutW())
		}
	}
}

// naiveConv computes a single-channel-out convolution directly.
func naiveConv(img *Tensor, w *Tensor, g ConvGeom) *Tensor {
	out := New(g.OutH(), g.OutW())
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			var acc float64
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					for kx := 0; kx < g.KW; kx++ {
						iy := oy*g.StrideH - g.PadH + ky
						ix := ox*g.StrideW - g.PadW + kx
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							continue
						}
						acc += float64(img.At(c, iy, ix)) * float64(w.At(c, ky, kx))
					}
				}
			}
			out.Set(float32(acc), oy, ox)
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConvolution(t *testing.T) {
	rng := NewRNG(5)
	g := ConvGeom{InC: 2, InH: 6, InW: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img := New(g.InC, g.InH, g.InW)
	w := New(g.InC, g.KH, g.KW)
	FillNormal(img, rng, 1)
	FillNormal(w, rng, 1)

	col := Im2Col(img, g)
	wRow := w.Reshape(1, g.InC*g.KH*g.KW)
	got := MatMul(wRow, col).Reshape(g.OutH(), g.OutW())
	want := naiveConv(img, w, g)
	if got.L2Distance(want) > 1e-4 {
		t.Fatalf("im2col conv diverges from naive by %g", got.L2Distance(want))
	}
}

func TestIm2ColStridedNoPad(t *testing.T) {
	rng := NewRNG(6)
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	img := New(g.InC, g.InH, g.InW)
	w := New(g.InC, g.KH, g.KW)
	FillNormal(img, rng, 1)
	FillNormal(w, rng, 1)
	col := Im2Col(img, g)
	got := MatMul(w.Reshape(1, -1), col).Reshape(g.OutH(), g.OutW())
	want := naiveConv(img, w, g)
	if got.L2Distance(want) > 1e-4 {
		t.Fatal("strided im2col diverges from naive conv")
	}
}

// The adjoint identity <Im2Col(x), y> == <x, Col2Im(y)> must hold for the
// conv backward pass to be a true gradient.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := NewRNG(7)
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	x := New(g.InC, g.InH, g.InW)
	FillNormal(x, rng, 1)
	y := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	FillNormal(y, rng, 1)

	ax := Im2Col(x, g)
	aty := Col2Im(y, g)

	var lhs, rhs float64
	for i := range ax.Data {
		lhs += float64(ax.Data[i]) * float64(y.Data[i])
	}
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(aty.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*(math.Abs(lhs)+1) {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestIm2ColPaddingContributesZero(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img := FromSlice([]float32{1, 1, 1, 1}, 1, 2, 2)
	col := Im2Col(img, g)
	// Center tap of the kernel sees all four pixels; corner taps see one.
	var total float64
	for _, v := range col.Data {
		total += float64(v)
	}
	// Each input pixel appears exactly 9 times minus the out-of-bounds
	// placements: total placements = sum over taps of in-bounds counts.
	// For a 2x2 image with 3x3 kernel, stride 1, pad 1: 16 placements.
	if total != 16 {
		t.Fatalf("padded im2col total = %v, want 16", total)
	}
}

// TestIm2ColSliceMatchesDefinition checks every element of the lowering
// against its definition, col[(c,kh,kw)][(oh,ow)] = img[c][ih][iw] or 0
// for a padded tap, over strides, paddings wider than the kernel's
// reach, kernels wider than the padded map at stride 1 (taps that read
// only padding) and a dirty destination, then over every small width
// geometry ConvGeom.Validate accepts.
func TestIm2ColSliceMatchesDefinition(t *testing.T) {
	rng := NewRNG(23)
	geoms := []ConvGeom{
		{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
		{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 9, InW: 7, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 1, InH: 4, InW: 6, KH: 2, KW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 4},
		{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 2, PadH: 2, PadW: 2},
		{InC: 1, InH: 1, InW: 1, KH: 1, KW: 5, StrideH: 1, StrideW: 1, PadW: 2},
		{InC: 1, InH: 3, InW: 2, KH: 3, KW: 7, StrideH: 1, StrideW: 1, PadH: 1, PadW: 3},
		{InC: 2, InH: 1, InW: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	}
	for inW := 1; inW <= 4; inW++ {
		for kw := 1; kw <= 7; kw++ {
			for padW := 0; padW <= 3; padW++ {
				for sw := 1; sw <= 3; sw++ {
					g := ConvGeom{InC: 1, InH: 2, InW: inW, KH: 3, KW: kw, StrideH: 1, StrideW: sw, PadH: 1, PadW: padW}
					if g.Validate() == nil {
						geoms = append(geoms, g)
					}
				}
			}
		}
	}
	for _, g := range geoms {
		img := New(g.InC, g.InH, g.InW)
		FillUniform(img, rng, 1, 2)
		rows, cols := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		col := make([]float32, rows*cols)
		for i := range col {
			col[i] = -1
		}
		Im2ColSlice(col, img.Data, g)
		for c := 0; c < g.InC; c++ {
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					row := (c*g.KH+kh)*g.KW + kw
					for oh := 0; oh < g.OutH(); oh++ {
						for ow := 0; ow < g.OutW(); ow++ {
							ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
							var want float32
							if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
								want = img.Data[(c*g.InH+ih)*g.InW+iw]
							}
							if got := col[row*cols+oh*g.OutW()+ow]; got != want {
								t.Fatalf("geom %+v: col[%d][%d,%d] = %v, want %v", g, row, oh, ow, got, want)
							}
						}
					}
				}
			}
		}
	}
}
