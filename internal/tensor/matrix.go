// Package tensor provides the dense linear-algebra substrate used by the
// neural-network layers in this repository. Matrices are row-major float64
// with explicit dimensions; all operations are deterministic given a seeded
// *rand.Rand so experiments are reproducible.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

// Matrix is a row-major matrix of float64 values: dense, its rows Cols
// apart in Data, or a column view of a wider matrix (ColView), its rows
// Pitch() apart. The zero value is an empty (0x0) dense matrix.
//
// A view is accepted only where DESIGN.md §7 says: At, Set, Row, Pitch,
// ColView, Overlap and SoftmaxRows, and as the a operand of the products
// (MatMul, MatMulBias, MatMulGated, MatMulTransA, MatMulTransB). Every other
// function here panics on one, because it reads Data as Rows·Cols
// consecutive elements.
type Matrix struct {
	Rows, Cols int
	Data       []float64

	// pitch is a view's row pitch, greater than Cols; 0 for a dense matrix.
	pitch int
}

// New returns a zero-filled rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix. The slice is used directly,
// not copied; len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Reshape returns m resized to rows×cols, reusing the backing array when it
// has capacity and allocating a fresh matrix otherwise (including m == nil).
// Contents are unspecified after a reshape; callers that need zeros must
// Zero() explicitly. This is the steady-state path for layers whose batch
// size varies call to call (e.g. a serving batcher coalescing a fluctuating
// number of requests): after the high-water mark, forwards allocate nothing.
func Reshape(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m != nil {
		m.dense("Reshape")
	}
	if m == nil || cap(m.Data) < n {
		return New(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	return m
}

// Pitch returns the distance in Data from the start of one row to the start
// of the next: Cols for a dense matrix.
func (m *Matrix) Pitch() int {
	if m.pitch != 0 {
		return m.pitch
	}
	return m.Cols
}

// ColView returns columns [lo, hi) of m as a matrix that shares m's storage:
// a write through either is seen by the other. It is dense when it takes
// every column, and a view with m's pitch otherwise. m may itself be a view.
func (m *Matrix) ColView(lo, hi int) *Matrix {
	p := m.Pitch()
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: ColView [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	v := &Matrix{Rows: m.Rows, Cols: hi - lo}
	if v.Cols != p {
		v.pitch = p
	}
	if end := (m.Rows-1)*p + hi; m.Rows > 0 {
		v.Data = m.Data[lo:end:end]
	}
	return v
}

// dense panics if m is a column view: op reads or writes Data as Rows·Cols
// consecutive elements.
func (m *Matrix) dense(op string) {
	if m.pitch != 0 {
		panic(fmt.Sprintf("tensor: %s of a column view (%d of every %d columns): dense matrices only", op, m.Cols, m.pitch))
	}
}

// Overlap reports whether a and b share storage: whether the runs of memory
// their Data span have an element in common. A view spans its parent's rows
// from its first element to its last, so two column views of one matrix
// overlap by this measure even where their columns do not.
func Overlap(a, b *Matrix) bool {
	return overlap(a.Data, b.Data)
}

func overlap(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	px, py := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return px < py+uintptr(len(y))*8 && py < px+uintptr(len(x))*8
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Pitch()+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Pitch()+j] = v }

// Row returns a view (shared storage) of row i.
func (m *Matrix) Row(i int) []float64 {
	at := i * m.Pitch()
	return m.Data[at : at+m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	m.dense("Clone")
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.dense("CopyFrom")
	src.dense("CopyFrom")
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	m.dense("Zero")
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	m.dense("Fill")
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	m.dense("String")
	return fmt.Sprintf("Matrix(%dx%d)%v", m.Rows, m.Cols, m.Data)
}

// RandUniform fills m with samples from U[lo, hi).
func (m *Matrix) RandUniform(rng *rand.Rand, lo, hi float64) {
	m.dense("RandUniform")
	for i := range m.Data {
		m.Data[i] = lo + (hi-lo)*rng.Float64()
	}
}

// RandNormal fills m with samples from N(mean, std²).
func (m *Matrix) RandNormal(rng *rand.Rand, mean, std float64) {
	m.dense("RandNormal")
	for i := range m.Data {
		m.Data[i] = mean + std*rng.NormFloat64()
	}
}

// XavierInit fills m with the Glorot-uniform initialization for a layer with
// fanIn inputs and fanOut outputs, the scheme used by the paper's TF2 MLPs.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.RandUniform(rng, -limit, limit)
}

// MatMul computes dst = a × b. dst must be a.Rows×b.Cols and must not
// overlap a or b. It returns dst for chaining. kernels.go states the rounding
// and zero-skip contract of all three products. In every product a may be a
// column view; dst and b are dense.
func MatMul(dst, a, b *Matrix) *Matrix {
	checkMatMul(dst, a, b)
	matMulRows(dst, a, b, nil, false, nil, 0, dst.Rows)
	return dst
}

func checkMatMul(dst, a, b *Matrix) {
	checkOperands("MatMul", dst, a, b)
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
}

// MatMulBias computes dst = a × b + bias like MatMul followed by
// AddRowVector, and with relu dst = max(a × b + bias, 0) like ReLU after
// that, bit for bit — but in one pass, finishing each row while it is in L1.
// It is a dense layer's forward, with or without its activation.
func MatMulBias(dst, a, b *Matrix, bias []float64, relu bool) *Matrix {
	checkMatMul(dst, a, b)
	if len(bias) != dst.Cols {
		panic(fmt.Sprintf("tensor: MatMulBias bias len %d want %d", len(bias), dst.Cols))
	}
	matMulRows(dst, a, b, bias, relu, nil, 0, dst.Rows)
	return dst
}

// MatMulGated computes dst = a × b like MatMul and then clears every element
// whose counterpart in gate, a matrix of dst's shape, has zero bits —
// ReLUGrad(dst, dst, gate), bit for bit — but in one pass, gating each row
// before it is stored. With gate the output a ReLU retained and b the
// transposed weights of the layer above it, it is that layer's input
// gradient taken back through the ReLU.
func MatMulGated(dst, a, b, gate *Matrix) *Matrix {
	checkMatMul(dst, a, b)
	assertSameShape("MatMulGated gate", gate, dst)
	matMulRows(dst, a, b, nil, false, gate, 0, dst.Rows)
	return dst
}

// MatMulTransA computes dst = aᵀ × b where a is stored untransposed.
// dst must be a.Cols×b.Cols and must not overlap a or b.
func MatMulTransA(dst, a, b *Matrix) *Matrix {
	checkMatMulTransA(dst, a, b)
	matMulTransARows(dst, a, b, 0, dst.Rows)
	return dst
}

func checkMatMulTransA(dst, a, b *Matrix) {
	checkOperands("MatMulTransA", dst, a, b)
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA outer mismatch %dx%d ᵀ× %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
}

// MatMulTransB computes dst = a × bᵀ where b is stored untransposed.
// dst must be a.Rows×b.Rows and must not overlap a or b. It is MatMul against
// a freshly allocated transpose of b; a caller that runs it every step keeps
// that transpose itself (TransposeRows, as nn.Dense does).
func MatMulTransB(dst, a, b *Matrix) *Matrix {
	checkMatMulTransB(dst, a, b)
	return MatMul(dst, a, TransposeRows(nil, b, 0, b.Rows))
}

// TransposeRows writes the transpose of rows [lo, hi) of src into dst, which
// is reshaped to src.Cols×(hi-lo) as by Reshape, and returns it. With a × bᵀ
// computed as a × (bᵀ), the row range of b is the column range of the result.
func TransposeRows(dst, src *Matrix, lo, hi int) *Matrix {
	src.dense("TransposeRows")
	if lo < 0 || hi > src.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: TransposeRows [%d,%d) of %d rows", lo, hi, src.Rows))
	}
	rows, cols := hi-lo, src.Cols
	dst = Reshape(dst, cols, rows)
	for i := 0; i < rows; i++ {
		srow := src.Data[(lo+i)*cols : (lo+i+1)*cols]
		for j, v := range srow {
			dst.Data[j*rows+i] = v
		}
	}
	return dst
}

func checkMatMulTransB(dst, a, b *Matrix) {
	checkOperands("MatMulTransB", dst, a, b)
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner mismatch %dx%d × %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Matrix) *Matrix {
	assertSameShape("Add", a, b)
	assertSameShape("Add dst", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub computes dst = a - b elementwise. dst may alias a or b.
func Sub(dst, a, b *Matrix) *Matrix {
	assertSameShape("Sub", a, b)
	assertSameShape("Sub dst", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// Mul computes dst = a ⊙ b (Hadamard product). dst may alias a or b.
func Mul(dst, a, b *Matrix) *Matrix {
	assertSameShape("Mul", a, b)
	assertSameShape("Mul dst", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	m.dense("Scale")
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled performs m += s·other in place.
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	assertSameShape("AddScaled", m, other)
	for i := range m.Data {
		m.Data[i] += s * other.Data[i]
	}
}

// AddRowVector adds the 1×Cols row vector v to every row of m in place;
// this is the bias-broadcast used by dense layers.
func (m *Matrix) AddRowVector(v []float64) {
	m.dense("AddRowVector")
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d want %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// Apply sets dst[i] = f(a[i]) for every element. dst may alias a.
func Apply(dst, a *Matrix, f func(float64) float64) *Matrix {
	assertSameShape("Apply", dst, a)
	for i := range dst.Data {
		dst.Data[i] = f(a.Data[i])
	}
	return dst
}

// SumRows returns the 1×Cols column-wise sums of m (used for bias gradients):
// each the sum of its column from the first row down, starting from +0. On
// the resident bodies that is the one-row product onesᵀ × m — 1·v is v, so
// the bits are the loop's — with a single 1.0 as every multiplier.
func (m *Matrix) SumRows(dst []float64) []float64 {
	m.dense("SumRows")
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: SumRows dst len %d want %d", len(dst), m.Cols))
	}
	if lanes := vectorLanes; lanes != 0 && m.Rows > 0 && m.Cols > 0 {
		p := rowArgs{rows: 1, dStep: m.Cols, k: m.Rows, ldb: m.Cols}
		residentRows(lanes, dst, one[:], m.Data, nil, nil, m.Cols, p)
		return dst
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			dst[j] += row[j]
		}
	}
	return dst
}

// one is SumRows' only multiplier.
var one = [1]float64{1}

// Sum returns the sum over all elements.
func (m *Matrix) Sum() float64 {
	m.dense("Sum")
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the mean over all elements (0 for an empty matrix).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// MaxAbs returns the largest absolute element (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	m.dense("MaxAbs")
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// HStack concatenates the given matrices left-to-right into dst. All inputs
// must share the same row count and their column counts must sum to dst.Cols.
func HStack(dst *Matrix, parts ...*Matrix) *Matrix {
	dst.dense("HStack")
	total := 0
	for _, p := range parts {
		p.dense("HStack")
		if p.Rows != dst.Rows {
			panic(fmt.Sprintf("tensor: HStack row mismatch %d vs %d", p.Rows, dst.Rows))
		}
		total += p.Cols
	}
	if total != dst.Cols {
		panic(fmt.Sprintf("tensor: HStack cols sum %d want %d", total, dst.Cols))
	}
	for i := 0; i < dst.Rows; i++ {
		drow := dst.Row(i)
		off := 0
		for _, p := range parts {
			copy(drow[off:off+p.Cols], p.Row(i))
			off += p.Cols
		}
	}
	return dst
}

// SliceCols copies columns [lo, hi) of src into dst (dst is src.Rows×(hi-lo)).
func SliceCols(dst, src *Matrix, lo, hi int) *Matrix {
	dst.dense("SliceCols")
	src.dense("SliceCols")
	if lo < 0 || hi > src.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", lo, hi, src.Cols))
	}
	if dst.Rows != src.Rows || dst.Cols != hi-lo {
		panic(fmt.Sprintf("tensor: SliceCols dst %dx%d want %dx%d", dst.Rows, dst.Cols, src.Rows, hi-lo))
	}
	for i := 0; i < src.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[lo:hi])
	}
	return dst
}

// ApproxEqual reports whether a and b have the same shape and all elements
// are within tol of each other.
func ApproxEqual(a, b *Matrix, tol float64) bool {
	a.dense("ApproxEqual")
	b.dense("ApproxEqual")
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func assertSameShape(op string, a, b *Matrix) {
	a.dense(op)
	b.dense(op)
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// checkOperands panics unless dst and b are dense and dst overlaps neither
// operand: a product reads a and b after it has begun to write dst.
func checkOperands(op string, dst, a, b *Matrix) {
	dst.dense(op)
	b.dense(op)
	if Overlap(dst, a) || Overlap(dst, b) {
		panic(fmt.Sprintf("tensor: %s dst overlaps an operand", op))
	}
}
