package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// METIS graph-file format support (the format of the METIS 4.0 manual
// the paper builds on), so graphs can be exchanged with
// METIS/ParMETIS/Chaco tooling:
//
//	<nv> <ne> [<fmt> [<ncon>]]
//	v1-line: [w1 w2 ... wncon] n1 [e1] n2 [e2] ...
//
// fmt is a 3-digit string: 1xx = vertex sizes (unsupported), x1x =
// vertex weights, xx1 = edge weights. Vertex ids are 1-based. Comment
// lines start with '%'.

// WriteMetis encodes g in METIS format, always emitting vertex and
// edge weights (fmt "011").
func (g *Graph) WriteMetis(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d 011 %d\n", g.NV(), g.NE(), g.NCon)
	for v := 0; v < g.NV(); v++ {
		first := true
		for _, wj := range g.Weights(v) {
			if !first {
				bw.WriteByte(' ')
			}
			bw.WriteString(strconv.Itoa(int(wj)))
			first = false
		}
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			fmt.Fprintf(bw, " %d %d", u+1, wgt[i])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadMetis decodes a METIS graph file.
func ReadMetis(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	// next returns the fields of the next non-comment line. Blank
	// lines are significant in the body (an isolated vertex has an
	// empty adjacency line), so only the header read skips them.
	next := func(skipBlank bool) ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if strings.HasPrefix(line, "%") || (skipBlank && line == "") {
				continue
			}
			return strings.Fields(line), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}

	header, err := next(true)
	if err != nil {
		return nil, fmt.Errorf("graph: metis: missing header: %w", err)
	}
	if len(header) < 2 || len(header) > 4 {
		return nil, fmt.Errorf("graph: metis: malformed header %v", header)
	}
	nv, err1 := strconv.Atoi(header[0])
	ne, err2 := strconv.Atoi(header[1])
	if err1 != nil || err2 != nil || nv < 0 || ne < 0 || nv > math.MaxInt32 {
		return nil, fmt.Errorf("graph: metis: bad counts in header %v", header)
	}
	hasVWgt, hasEWgt := false, false
	ncon := 1
	if len(header) >= 3 {
		f := header[2]
		if len(f) != 3 || strings.Trim(f, "01") != "" {
			return nil, fmt.Errorf("graph: metis: bad fmt field %q", f)
		}
		if f[0] == '1' {
			return nil, fmt.Errorf("graph: metis: vertex sizes not supported")
		}
		hasVWgt = f[1] == '1'
		hasEWgt = f[2] == '1'
	}
	if len(header) == 4 {
		ncon, err = strconv.Atoi(header[3])
		if err != nil || ncon < 1 {
			return nil, fmt.Errorf("graph: metis: bad ncon %q", header[3])
		}
	}
	if !hasVWgt {
		ncon = 1
	}

	// The header's counts are untrusted: nothing proportional to them
	// is allocated up front. Vertex weights grow line by line, so a
	// header claiming more vertices than the file holds fails at the
	// first missing line.
	b := &Builder{nv: nv, ncon: ncon}
	type ekey struct{ u, v int32 }
	seen := make(map[ekey]struct{}, min(ne, 1<<16))
	for v := 0; v < nv; v++ {
		fields, err := next(false)
		if err != nil {
			return nil, fmt.Errorf("graph: metis: vertex %d: %w", v+1, err)
		}
		pos := 0
		if hasVWgt {
			if len(fields) < ncon {
				return nil, fmt.Errorf("graph: metis: vertex %d: missing weights", v+1)
			}
			for j := 0; j < ncon; j++ {
				wj, err := strconv.ParseInt(fields[j], 10, 32)
				if err != nil || wj < 0 {
					return nil, fmt.Errorf("graph: metis: vertex %d: bad weight %q", v+1, fields[j])
				}
				b.vwgt = append(b.vwgt, int32(wj))
			}
			pos = ncon
		} else {
			b.vwgt = append(b.vwgt, 1)
		}
		stride := 1
		if hasEWgt {
			stride = 2
		}
		if (len(fields)-pos)%stride != 0 {
			return nil, fmt.Errorf("graph: metis: vertex %d: dangling adjacency field", v+1)
		}
		for i := pos; i < len(fields); i += stride {
			u, err := strconv.Atoi(fields[i])
			if err != nil || u < 1 || u > nv {
				return nil, fmt.Errorf("graph: metis: vertex %d: bad neighbor %q", v+1, fields[i])
			}
			ew := int32(1)
			if hasEWgt {
				e, err := strconv.ParseInt(fields[i+1], 10, 32)
				if err != nil || e < 1 {
					return nil, fmt.Errorf("graph: metis: vertex %d: bad edge weight %q", v+1, fields[i+1])
				}
				ew = int32(e)
			}
			// Each undirected edge normally appears in both endpoint
			// lines; deduplicate so weights are not doubled, while
			// still accepting files that list an edge only once.
			a, c := int32(v), int32(u-1)
			if a == c {
				continue
			}
			if a > c {
				a, c = c, a
			}
			if _, dup := seen[ekey{a, c}]; dup {
				continue
			}
			seen[ekey{a, c}] = struct{}{}
			b.AddEdge(int(a), int(c), ew)
		}
	}
	g := b.Build()
	if g.NE() != ne {
		return nil, fmt.Errorf("graph: metis: header says %d edges, file has %d", ne, g.NE())
	}
	return g, nil
}
