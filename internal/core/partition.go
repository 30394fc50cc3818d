package core

import (
	"fmt"

	"factorml/internal/linalg"
)

// Partition records how a joined feature vector of width D is split across
// the relations [S, R1, …, Rq] (paper notation: dS = Dims[0] = d_{R0}).
type Partition struct {
	Dims []int // feature width per relation part
	Offs []int // offset of each part within the joined vector
	D    int   // total width
}

// NewPartition builds a partition from per-relation widths.
func NewPartition(dims []int) Partition {
	if len(dims) == 0 {
		panic("core: empty partition")
	}
	p := Partition{Dims: append([]int{}, dims...), Offs: make([]int, len(dims))}
	for i, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("core: negative partition dim %d", d))
		}
		p.Offs[i] = p.D
		p.D += d
	}
	return p
}

// Parts returns the number of relation parts (1 + q).
func (p Partition) Parts() int { return len(p.Dims) }

// Slice returns the sub-vector of x belonging to part i.
func (p Partition) Slice(x []float64, i int) []float64 {
	if len(x) != p.D {
		panic(fmt.Sprintf("core: vector length %d does not match partition width %d", len(x), p.D))
	}
	return x[p.Offs[i] : p.Offs[i]+p.Dims[i]]
}

// BlockedSym is a symmetric matrix cut into partition blocks:
// B[i][j] has shape Dims[i]×Dims[j] (paper Eq. 21: I_mn).
type BlockedSym struct {
	P Partition
	B [][]*linalg.Dense
}

// BlockSym partitions the symmetric d×d matrix m.
func BlockSym(m *linalg.Dense, p Partition) *BlockedSym {
	r, c := m.Dims()
	if r != p.D || c != p.D {
		panic(fmt.Sprintf("core: matrix %dx%d does not match partition width %d", r, c, p.D))
	}
	nb := p.Parts()
	bs := &BlockedSym{P: p, B: make([][]*linalg.Dense, nb)}
	for i := 0; i < nb; i++ {
		bs.B[i] = make([]*linalg.Dense, nb)
		for j := 0; j < nb; j++ {
			bs.B[i][j] = m.Block(p.Offs[i], p.Offs[j], p.Dims[i], p.Dims[j])
		}
	}
	return bs
}
