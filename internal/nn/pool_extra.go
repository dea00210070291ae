package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// AvgPool2D applies average pooling over NCHW input. SpArSe-style NAS
// cells use it as a cheap downsampler; it is also the standard global-
// pooling head for larger backbones.
type AvgPool2D struct {
	statelessParams
	name           string
	Kernel, Stride int

	inShape []int
}

// NewAvgPool2D returns an average-pool layer.
func NewAvgPool2D(name string, kernel, stride int) *AvgPool2D {
	if kernel <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: AvgPool2D %q needs positive kernel/stride, got %d/%d", name, kernel, stride))
	}
	return &AvgPool2D{name: name, Kernel: kernel, Stride: stride}
}

// Name implements Layer.
func (l *AvgPool2D) Name() string { return l.name }

// OutDims returns the spatial output dims for input h×w.
func (l *AvgPool2D) OutDims(h, w int) (int, int) {
	return tensor.WindowOut(h, l.Kernel, l.Stride, 0), tensor.WindowOut(w, l.Kernel, l.Stride, 0)
}

// Forward implements Layer.
func (l *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: AvgPool2D %q expects NCHW input, got %v", l.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := l.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: AvgPool2D %q yields empty output for input %v", l.name, x.Shape()))
	}
	if train {
		l.inShape = append(l.inShape[:0], x.Shape()...)
	}
	out := tensor.New(n, c, oh, ow)
	inv := float32(1) / float32(l.Kernel*l.Kernel)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			obase := (ni*c + ci) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for ky := 0; ky < l.Kernel; ky++ {
						row := base + (oy*l.Stride+ky)*w + ox*l.Stride
						for kx := 0; kx < l.Kernel; kx++ {
							s += x.Data[row+kx]
						}
					}
					out.Data[obase+oy*ow+ox] = s * inv
				}
			}
		}
	}
	return out
}

// Backward implements Layer: the gradient spreads uniformly over each
// pooling window.
func (l *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(l.inShape) == 0 {
		panic(fmt.Sprintf("nn: AvgPool2D %q backward without forward", l.name))
	}
	n, c, h, w := l.inShape[0], l.inShape[1], l.inShape[2], l.inShape[3]
	oh, ow := l.OutDims(h, w)
	dx := tensor.New(l.inShape...)
	inv := float32(1) / float32(l.Kernel*l.Kernel)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			obase := (ni*c + ci) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := grad.Data[obase+oy*ow+ox] * inv
					for ky := 0; ky < l.Kernel; ky++ {
						row := base + (oy*l.Stride+ky)*w + ox*l.Stride
						for kx := 0; kx < l.Kernel; kx++ {
							dx.Data[row+kx] += g
						}
					}
				}
			}
		}
	}
	return dx
}
