package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteEdgeList regenerates a generator's graph at the given scale and
// writes each undirected edge of its CSR once, as a "u v" line with u < v
// — the standalone input-generator surface (cmd/atgen), mirroring how
// gapbs inputs can be dumped to .el files. Self-loops and duplicate
// edges are already gone, so the line count is half the CSR's entries.
func WriteEdgeList(w io.Writer, gen string, scale uint64) (int, error) {
	h := generate(gen, scale)
	bw := bufio.NewWriter(w)
	edges := 0
	for u := uint64(0); u < h.n; u++ {
		for _, v := range h.nbr[h.off[u]:h.off[u+1]] {
			// Emit each undirected edge once.
			if uint64(v) < u {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return edges, err
			}
			edges++
		}
	}
	return edges, bw.Flush()
}

// Stats summarizes a generated graph for tooling output.
type Stats struct {
	Vertices uint64
	// DirectedEdges counts CSR entries (2x undirected edges).
	DirectedEdges uint64
	MaxDegree     uint64
}

// GraphStats regenerates a graph and summarizes it.
func GraphStats(gen string, scale uint64) Stats {
	h := generate(gen, scale)
	s := Stats{Vertices: h.n, DirectedEdges: uint64(len(h.nbr))}
	for u := uint64(0); u < h.n; u++ {
		if d := h.off[u+1] - h.off[u]; d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}
