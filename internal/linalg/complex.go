package linalg

// CMatrix is a dense, row-major complex matrix used by the AC small-signal
// solver in the circuit simulator.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix allocates a zeroed r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i.
func (m *CMatrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	out := NewCMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·x.
func (m *CMatrix) MulVec(x []complex128) []complex128 {
	if len(x) != m.Cols {
		panic("linalg: CMatrix.MulVec dimension mismatch")
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s complex128
		for j := range row {
			s += row[j] * x[j]
		}
		out[i] = s
	}
	return out
}
