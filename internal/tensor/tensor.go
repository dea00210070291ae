// Package tensor provides the minimal dense float32 tensor substrate used
// by the neural-network, compression, and reinforcement-learning packages.
//
// Tensors are row-major with an explicit shape. Convolutional data uses the
// NCHW layout (batch, channels, height, width), matching the layout the
// paper's MCU kernels operate on. The package is intentionally BLAS-free:
// everything is written against the Go standard library so the module
// builds offline.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
//
// The zero value is an empty tensor. Use New or the helper constructors to
// build tensors with a shape.
type Tensor struct {
	shape   []int
	strides []int
	// Data is the backing storage, exposed so kernels (im2col, matmul,
	// quantizers) can operate on it directly without per-element calls.
	Data []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		Data:  make([]float32, n),
	}
	t.strides = computeStrides(t.shape)
	return t
}

// FromSlice returns a tensor that adopts data as its backing storage.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		Data:  data,
	}
	t.strides = computeStrides(t.shape)
	return t
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the tensor with a new shape sharing the same
// backing data. It panics if the volumes differ. One dimension may be -1,
// in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: at most one dimension may be -1 in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for shape %v from %d elements", shape, len(t.Data)))
		}
		shape[infer] = len(t.Data) / n
		n *= shape[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %d elements", shape, len(t.Data)))
	}
	return &Tensor{shape: shape, strides: computeStrides(shape), Data: t.Data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// AddInPlace adds o element-wise into t. Shapes must have equal volume.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: AddInPlace volume mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// ScaleInPlace multiplies every element by alpha.
func (t *Tensor) ScaleInPlace(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Sum returns the sum of all elements in float64 for numerical stability.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// AbsSum returns the sum of absolute values of all elements.
func (t *Tensor) AbsSum() float64 {
	var s float64
	for _, v := range t.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// MaxAbs returns the maximum absolute value of any element (0 for empty).
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// ArgMax returns the index of the largest element in the flattened tensor.
// It returns -1 for an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		return -1
	}
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

// L2Distance returns the Euclidean distance between t and o.
func (t *Tensor) L2Distance(o *Tensor) float64 {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: L2Distance volume mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	var s float64
	for i, v := range t.Data {
		d := float64(v - o.Data[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a short diagnostic description.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elems)", t.shape, len(t.Data))
}
