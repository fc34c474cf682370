package reputation

import (
	"reflect"
	"testing"
)

// graphFromFuzzBytes decodes an arbitrary byte string into a trust graph:
// the first byte picks n (1..32), then each 3-byte chunk is one mutation
// (from, to, weight). Self-loops, duplicate edges, negative and zero
// weights, and deletions are all representable — exactly the edge cases plan
// emission must round-trip.
func graphFromFuzzBytes(data []byte) *TrustGraph {
	n := 1
	if len(data) > 0 {
		n = 1 + int(data[0])%32
	}
	g, err := NewTrustGraph(n)
	if err != nil {
		panic(err) // n >= 1 by construction
	}
	for i := 1; i+2 < len(data); i += 3 {
		from := int(data[i]) % n
		to := int(data[i+1]) % n
		wb := data[i+2]
		w := float64(wb)/16 - 2 // range [-2, 13.9]: negatives, zeros, dupes
		if wb%5 == 0 {
			// Deletion / overwrite path.
			_ = g.SetTrust(from, to, w)
		} else {
			// Accumulation path (ignores w <= 0).
			_ = g.AddTrust(from, to, w)
		}
	}
	return g
}

// FuzzCSRFromTrustGraph fuzzes plan emission from the map-backed graph:
// whatever graph the bytes decode to — empty, self-loops, all-zero rows,
// duplicate edges — the plan must round-trip bit-identically to the dense
// normalized matrix at every shard count, keep every slice row sorted,
// never store a self-loop, and survive a same-pattern Refresh unchanged.
func FuzzCSRFromTrustGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 200})                      // single peer, self-loop attempt
	f.Add([]byte{5, 1, 2, 100, 1, 2, 100, 2, 1, 90}) // duplicate edges
	f.Add([]byte{8, 3, 4, 0, 4, 3, 5, 0, 7, 255})    // zero and negative weights
	f.Add([]byte{16, 0, 1, 33, 1, 0, 33, 2, 2, 99, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromFuzzBytes(data)
		for _, k := range []int{1, 2, 5} {
			p := mustPlan(t, g, k)
			checkPlanInvariants(t, p, g)
			for _, sl := range p.Slices() {
				for r := 0; r < sl.Rows(); r++ {
					src, _ := sliceRow(&sl, r)
					for _, i := range src {
						if int(i) == sl.Lo+r {
							t.Fatalf("self-loop stored at %d", i)
						}
					}
				}
			}
			// A same-pattern refresh must keep the plan bit-identical.
			before := densify(p)
			if !p.Refresh(g) {
				t.Fatal("refresh of the same graph should take the fast path")
			}
			if !reflect.DeepEqual(before, densify(p)) {
				t.Fatal("fast-path refresh changed values")
			}
		}
	})
}
