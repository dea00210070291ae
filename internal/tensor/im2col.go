package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// WindowOut returns how many positions a window of size k takes, moving
// by stride, over an input of length in padded by pad on each side — the
// output length of a convolution or pooling axis. It is 0 when the
// window is larger than the padded input, where the plain formula's
// truncating division would still count one position.
func WindowOut(in, k, stride, pad int) int {
	if in+2*pad < k {
		return 0
	}
	return (in+2*pad-k)/stride + 1
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return WindowOut(g.InH, g.KH, g.StrideH, g.PadH) }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return WindowOut(g.InW, g.KW, g.StrideW, g.PadW) }

// Validate reports an error if the geometry is degenerate.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive kernel %+v", g)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive stride %+v", g)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: conv geometry has negative padding %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output %+v", g)
	}
	return nil
}

// Im2Col lowers one image (CHW) into a [C*KH*KW, OutH*OutW] matrix so that
// convolution becomes a single matmul with the [outC, C*KH*KW] filter
// matrix. Out-of-bounds (padded) taps contribute zero.
func Im2Col(img *Tensor, g ConvGeom) *Tensor {
	col := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	Im2ColInto(col, img, g)
	return col
}

// Im2ColInto lowers img into col (shape [C*KH*KW, OutH*OutW]), reusing
// col's storage — the allocation-free path the conv layers drive with
// pooled buffers. col is fully overwritten, so a dirty recycled buffer is
// fine.
func Im2ColInto(col, img *Tensor, g ConvGeom) {
	if img.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image volume %d does not match geometry %+v", img.Len(), g))
	}
	outH, outW := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := outH * outW
	if col.Dim(0) != rows || col.Dim(1) != cols {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v does not match geometry %+v", col.Shape(), g))
	}
	Im2ColSlice(col.Data, img.Data, g)
}

// Im2ColSlice is Im2ColInto over raw slices: dst must hold
// InC*KH*KW × OutH*OutW values and is fully overwritten. Compiled
// inference plans call it directly against arena storage so the lowering
// allocates nothing.
func Im2ColSlice(dst, src []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := outH * outW
	if len(src) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2ColSlice image volume %d does not match geometry %+v", len(src), g))
	}
	if len(dst) < rows*cols {
		panic(fmt.Sprintf("tensor: Im2ColSlice dst length %d below %d for geometry %+v", len(dst), rows*cols, g))
	}
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				dstRow := dst[row*cols : (row+1)*cols]
				// Output columns [lo, hi) read input column
				// iw = ow*StrideW - PadW + kw inside the image; the rest
				// are padded taps and contribute zero.
				lo, hi := 0, outW
				if d := g.PadW - kw; d > 0 {
					lo = (d + g.StrideW - 1) / g.StrideW
				}
				if last := g.InW - 1 + g.PadW - kw; last < 0 {
					hi = 0
				} else {
					hi = min(hi, last/g.StrideW+1)
				}
				if lo >= hi { // this tap reads padding at every column
					clear(dstRow)
					continue
				}
				for oh := 0; oh < outH; oh++ {
					seg := dstRow[oh*outW : (oh+1)*outW]
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						clear(seg)
						continue
					}
					clear(seg[:lo])
					clear(seg[hi:])
					srcRow := src[chanBase+ih*g.InW : chanBase+(ih+1)*g.InW]
					iw := lo*g.StrideW - g.PadW + kw
					if g.StrideW == 1 {
						copy(seg[lo:hi], srcRow[iw:])
						continue
					}
					for ow := lo; ow < hi; ow++ {
						seg[ow] = srcRow[iw]
						iw += g.StrideW
					}
				}
			}
		}
	}
}

// Col2Im scatters a [C*KH*KW, OutH*OutW] gradient matrix back onto a CHW
// image gradient, accumulating overlapping taps. It is the adjoint of
// Im2Col and is used by the convolution backward pass.
func Col2Im(col *Tensor, g ConvGeom) *Tensor {
	outH, outW := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := outH * outW
	if col.Dim(0) != rows || col.Dim(1) != cols {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match geometry %+v", col.Shape(), g))
	}
	img := New(g.InC, g.InH, g.InW)
	src := col.Data
	dst := img.Data
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				srcRow := src[row*cols : (row+1)*cols]
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						continue
					}
					dstRow := dst[chanBase+ih*g.InW:]
					outBase := oh * outW
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							continue
						}
						dstRow[iw] += srcRow[outBase+ow]
					}
				}
			}
		}
	}
	return img
}
