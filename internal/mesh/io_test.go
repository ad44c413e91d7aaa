package mesh

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadMeshHugeCountsBounded feeds truncated headers whose counts
// claim up to 2^28 entries. Each must fail on the missing data having
// allocated far less than what the count implies (a 2^28 node count
// alone would be 6.4 GB of coordinates).
func TestReadMeshHugeCountsBounded(t *testing.T) {
	const huge = 1 << 28
	header := []byte("HSEM\x01\x03")
	for _, tc := range []struct {
		name   string
		counts []uint32 // nodes, elements, node-list length, surfaces
	}{
		{"nodes", []uint32{huge}},
		{"elements", []uint32{0, huge}},
		{"node_list", []uint32{0, 0, huge}},
		{"surfaces", []uint32{0, 0, 0, huge}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]byte(nil), header...)
			for _, c := range tc.counts {
				in = binary.LittleEndian.AppendUint32(in, c)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadMesh(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("accepted a truncated stream")
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("allocated %d bytes before failing, want < 1 MB", alloc)
			}
		})
	}
}

// FuzzReadMesh feeds arbitrary bytes to ReadMesh. A mesh it accepts
// must validate and re-encode to a stream that decodes to the same
// bytes again.
func FuzzReadMesh(f *testing.F) {
	var buf bytes.Buffer
	if _, err := unitHexMesh().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(binary.LittleEndian.AppendUint32([]byte("HSEM\x01\x03"), 1<<28))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMesh(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted mesh is invalid: %v", err)
		}
		var first, second bytes.Buffer
		if _, err := m.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMesh(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written mesh: %v", err)
		}
		if _, err := back.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("round trip changed the mesh")
		}
	})
}
