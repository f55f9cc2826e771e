// Package erasure implements systematic Reed-Solomon erasure coding over
// GF(2^8), built from scratch on the standard library.
//
// ICIStrategy's coded-storage extension encodes a block body into n shares
// such that any k reconstruct it; the repair path uses it when plain
// replicas are gone. The code is a classic Vandermonde-derived systematic
// construction: the first k shares are the data itself, the remaining n-k
// are parity.
package erasure

// GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11d as the
// reduction constant with the implicit x^8). Tables are built once at
// package init; gfExp is doubled in length to skip a mod in gfMul.
var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// multiply x by the generator 0x02 modulo the field polynomial
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= 0x1d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b. b must be non-zero.
func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a (a must be non-zero).
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// gfPow raises base to the given power.
func gfPow(base byte, power int) byte {
	if power == 0 {
		return 1
	}
	if base == 0 {
		return 0
	}
	p := (int(gfLog[base]) * power) % 255
	if p < 0 {
		p += 255
	}
	return gfExp[p]
}

// mulSliceXor computes out[i] ^= c * in[i] for all i, the inner loop of
// encoding, decoding and the matrix arithmetic.
func mulSliceXor(c byte, in, out []byte) {
	if c == 0 {
		return
	}
	logC := int(gfLog[c])
	for i, v := range in {
		if v != 0 {
			out[i] ^= gfExp[logC+int(gfLog[v])]
		}
	}
}

// codeRow computes one output shard as the coefficient-weighted sum of the
// input shards: out = Σ_j coeffs[j]·inputs[j].
func codeRow(coeffs []byte, inputs [][]byte, out []byte) {
	clear(out)
	for j, in := range inputs {
		mulSliceXor(coeffs[j], in, out)
	}
}

// matrix is a GF(256) matrix, one slice per row.
type matrix [][]byte

func newMatrix(rows, cols int) matrix {
	m := make(matrix, rows)
	for r := range m {
		m[r] = make([]byte, cols)
	}
	return m
}

// vandermonde builds the rows x cols matrix with entry (r,c) = r^c.
// Any cols distinct rows of it are linearly independent.
func vandermonde(rows, cols int) matrix {
	m := newMatrix(rows, cols)
	for r := range m {
		for c := range m[r] {
			m[r][c] = gfPow(byte(r), c)
		}
	}
	return m
}

// mul returns m * other.
func (m matrix) mul(other matrix) matrix {
	out := newMatrix(len(m), len(other[0]))
	for r, row := range m {
		codeRow(row, other, out[r])
	}
	return out
}

// rows returns the matrix formed by the given rows of m, sharing them.
func (m matrix) rows(idx []int) matrix {
	out := make(matrix, len(idx))
	for i, r := range idx {
		out[i] = m[r]
	}
	return out
}

// invert returns the inverse via Gauss-Jordan elimination, or false if m is
// singular. m must be square.
func (m matrix) invert() (matrix, bool) {
	n := len(m)
	work := newMatrix(n, 2*n)
	for r, row := range work {
		copy(row, m[r])
		row[n+r] = 1
	}
	for col := 0; col < n; col++ {
		pivot := col
		for pivot < n && work[pivot][col] == 0 {
			pivot++
		}
		if pivot == n {
			return nil, false
		}
		work[pivot], work[col] = work[col], work[pivot]
		// scale the pivot row to 1, then eliminate the column everywhere else
		rowC := work[col]
		inv := gfInv(rowC[col])
		for i := range rowC {
			rowC[i] = gfMul(rowC[i], inv)
		}
		for r, row := range work {
			if r != col {
				mulSliceXor(row[col], rowC, row)
			}
		}
	}
	for r, row := range work {
		work[r] = row[n:]
	}
	return work, true
}
