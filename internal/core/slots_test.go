package core

import "testing"

// TestEdgeSlotContract checks the closed-form slot numbering against the
// linecomm.SlottedNetwork contract over every ordered vertex pair,
// out-of-range vertices included: EdgeSlot reports ok exactly when
// HasEdge does, slots lie in [0, NumEdgeSlots), both endpoint orders
// share a slot, and distinct edges get distinct slots.
func TestEdgeSlotContract(t *testing.T) {
	for _, p := range []Params{HypercubeParams(6), BaseParams(8, 3), RecParams(9, 5, 2)} {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		order := s.Order()
		owner := make([]uint64, s.NumEdgeSlots()) // slot -> lower*order + upper + 1
		edges := uint64(0)
		for u := uint64(0); u < order+2; u++ {
			for v := uint64(0); v < order+2; v++ {
				slot, ok := s.EdgeSlot(u, v)
				if ok != s.HasEdge(u, v) {
					t.Fatalf("%v: EdgeSlot(%d,%d) ok=%v, HasEdge=%v", p, u, v, ok, s.HasEdge(u, v))
				}
				if back, okBack := s.EdgeSlot(v, u); back != slot || okBack != ok {
					t.Fatalf("%v: EdgeSlot(%d,%d)=%d,%v but EdgeSlot(%d,%d)=%d,%v",
						p, u, v, slot, ok, v, u, back, okBack)
				}
				if !ok || u > v {
					continue
				}
				if slot < 0 || slot >= len(owner) {
					t.Fatalf("%v: slot %d of {%d,%d} outside [0,%d)", p, slot, u, v, len(owner))
				}
				if id := owner[slot]; id != 0 {
					t.Fatalf("%v: edges {%d,%d} and {%d,%d} share slot %d",
						p, (id-1)/order, (id-1)%order, u, v, slot)
				}
				owner[slot] = u*order + v + 1
				edges++
			}
		}
		if edges != s.NumEdges() {
			t.Fatalf("%v: %d slotted edges, NumEdges says %d", p, edges, s.NumEdges())
		}
	}
}
