package mesh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/geom"
)

// Binary mesh format: a little-endian stream with a magic header,
// version byte, and length-prefixed sections. The format is
// self-contained so snapshot sequences can be written by cmd/meshgen
// and replayed by the benchmark harness.

const (
	meshMagic   = uint32(0x4d455348) // "MESH"
	meshVersion = uint8(1)
)

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteTo encodes the mesh in the binary format. It implements
// io.WriterTo.
func (m *Mesh) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	le := binary.LittleEndian

	put32 := func(v uint32) {
		var b [4]byte
		le.PutUint32(b[:], v)
		bw.Write(b[:])
	}
	put64 := func(v uint64) {
		var b [8]byte
		le.PutUint64(b[:], v)
		bw.Write(b[:])
	}

	put32(meshMagic)
	bw.WriteByte(meshVersion)
	bw.WriteByte(uint8(m.Dim))

	put32(uint32(len(m.Coords)))
	for _, p := range m.Coords {
		for d := 0; d < 3; d++ {
			put64(math.Float64bits(p[d]))
		}
	}

	put32(uint32(len(m.Types)))
	for _, t := range m.Types {
		bw.WriteByte(uint8(t))
	}
	put32(uint32(len(m.ENodes)))
	for _, v := range m.ENodes {
		put32(uint32(v))
	}

	put32(uint32(len(m.Surface)))
	for _, s := range m.Surface {
		bw.WriteByte(uint8(len(s.Nodes)))
		for _, v := range s.Nodes {
			put32(uint32(v))
		}
		put32(uint32(s.Elem))
	}

	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadMesh decodes a mesh written by WriteTo.
func ReadMesh(r io.Reader) (*Mesh, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian

	var err error
	get32 := func() uint32 {
		if err != nil {
			return 0
		}
		var b [4]byte
		if _, e := io.ReadFull(br, b[:]); e != nil {
			err = e
			return 0
		}
		return le.Uint32(b[:])
	}
	get64 := func() uint64 {
		if err != nil {
			return 0
		}
		var b [8]byte
		if _, e := io.ReadFull(br, b[:]); e != nil {
			err = e
			return 0
		}
		return le.Uint64(b[:])
	}
	getByte := func() uint8 {
		if err != nil {
			return 0
		}
		b, e := br.ReadByte()
		if e != nil {
			err = e
			return 0
		}
		return b
	}

	if magic := get32(); err == nil && magic != meshMagic {
		return nil, fmt.Errorf("mesh: bad magic %#x", magic)
	}
	if v := getByte(); err == nil && v != meshVersion {
		return nil, fmt.Errorf("mesh: unsupported version %d", v)
	}
	m := &Mesh{Dim: int(getByte())}
	if err == nil && m.Dim != 2 && m.Dim != 3 {
		return nil, fmt.Errorf("mesh: bad dimension %d", m.Dim)
	}

	// Every count comes from untrusted bytes. It is bounded, and the
	// slice it sizes starts at most growCap long and grows only as its
	// data actually arrives, so a truncated header claiming 2^28 nodes
	// fails at the first missing byte instead of allocating gigabytes.
	const maxCount = 1 << 28
	const growCap = 1 << 12
	count := func(what string) uint32 {
		n := get32()
		if err == nil && n > maxCount {
			err = fmt.Errorf("implausible %s %d", what, n)
		}
		return n
	}

	nn := count("node count")
	m.Coords = make([]geom.Point, 0, min(nn, growCap))
	for i := uint32(0); i < nn && err == nil; i++ {
		var p geom.Point
		for d := range p {
			p[d] = math.Float64frombits(get64())
		}
		m.Coords = append(m.Coords, p)
	}

	ne := count("element count")
	m.Types = make([]ElemType, 0, min(ne, growCap))
	m.EPtr = make([]int32, 1, min(ne, growCap)+1)
	for e := uint32(0); e < ne && err == nil; e++ {
		t := ElemType(getByte())
		if err == nil && !t.known() {
			return nil, fmt.Errorf("mesh: element %d has unknown type %d", e, t)
		}
		m.Types = append(m.Types, t)
		m.EPtr = append(m.EPtr, m.EPtr[e]+int32(t.NumNodes()))
	}
	nen := count("node-list length")
	if err == nil && int(nen) != int(m.EPtr[ne]) {
		return nil, fmt.Errorf("mesh: node list length %d does not match element types (%d)", nen, m.EPtr[ne])
	}
	m.ENodes = make([]int32, 0, min(nen, growCap))
	for i := uint32(0); i < nen && err == nil; i++ {
		m.ENodes = append(m.ENodes, int32(get32()))
	}

	ns := count("surface count")
	m.Surface = make([]SurfaceElem, 0, min(ns, growCap))
	for i := uint32(0); i < ns && err == nil; i++ {
		k := int(getByte())
		if err == nil && (k < 2 || k > 4) {
			return nil, fmt.Errorf("mesh: surface element %d has %d nodes", i, k)
		}
		nodes := make([]int32, k)
		for j := range nodes {
			nodes[j] = int32(get32())
		}
		m.Surface = append(m.Surface, SurfaceElem{Nodes: nodes, Elem: int32(get32())})
	}

	if err != nil {
		return nil, fmt.Errorf("mesh: decode: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveFile writes the mesh to path.
func (m *Mesh) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := m.WriteTo(f); err != nil {
		_ = f.Close() // already failing; the write error is the one to report
		return err
	}
	return f.Close()
}

// LoadFile reads a mesh from path.
func LoadFile(path string) (*Mesh, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMesh(f)
}
