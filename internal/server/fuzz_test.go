package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// jobSpecFuzzSeeds are the FuzzJobSpec seeds; tools/mkcorpus writes
// the same bytes to the checked-in corpus.
var jobSpecFuzzSeeds = []string{
	`{"kind":"graph","graph":{"ncon":1,"xadj":[0,1,3,4],"adj":[1,0,2,1]},"k":2,"seed":7}`,
	`{"kind":"graph","graph":{"ncon":2,"xadj":[0,1,2],"adj":[1,0],"adjwgt":[3,3],"vwgt":[1,0,1,1],"dim":2,"coords":[0,0,1,1]},"k":2,"backend":"rcb","imbalance":0.05}`,
	`{"kind":"graph","graph":{"ncon":1,"xadj":[0,10,10,10,3],"adj":[1,2,3]},"k":2}`,
	`{"kind":"sweep","sweep":{"snapshots":14,"ks":[2,3,4,6,8],"seed":11}}`,
	`{"kind":"sweep","sweep":{"snapshots":3,"ks":[4],"backend":"rcb","adaptive":true},"timeout_ms":500}`,
	`{"kind":"mesh","k":-1}`,
}

// FuzzJobSpec feeds arbitrary bytes through the submit path's parsing:
// the JSON decode handleSubmit does, then validate. For a spec that
// passes, hashing and timeout resolution must not panic, and a graph
// spec must build into a valid graph or return an error — the
// worker's deep check, which must never panic on a spec validate let
// through.
func FuzzJobSpec(f *testing.F) {
	for _, s := range jobSpecFuzzSeeds {
		f.Add([]byte(s))
	}
	const maxVertices = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
			return
		}
		if err := spec.validate(maxVertices); err != nil {
			return
		}
		if spec.hash() == "" {
			t.Fatal("accepted spec hashes to the empty string")
		}
		if d := spec.timeout(time.Minute, time.Hour); d <= 0 || d > time.Hour {
			t.Fatalf("timeout %v outside (0, 1h]", d)
		}
		if spec.Kind != KindGraph {
			return
		}
		g, coords, err := spec.Graph.Build()
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph is invalid: %v", err)
		}
		if coords != nil && len(coords) != g.NV() {
			t.Fatalf("%d coordinates for %d vertices", len(coords), g.NV())
		}
	})
}
