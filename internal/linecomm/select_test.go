package linecomm_test

import (
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// TestCubeSelectsSlottedEngine pins the engine choice for the largest
// streamed pipelines: the k = 3 cubes at n = 22 and n = 24 carry
// 92M and 403M closed-form edge slots and must run on the slotted
// engine, not fall back to the map engine. The facade Cube, which the
// planserver range worker and distverify's in-process fallback hand to
// the validator, must land there too. Only the predicate runs; the
// cubes' bit sets are never allocated.
func TestCubeSelectsSlottedEngine(t *testing.T) {
	for _, n := range []int{20, 22, 24} {
		s, err := core.NewAuto(3, n)
		if err != nil {
			t.Fatal(err)
		}
		if !linecomm.SelectsSlotted(s) {
			t.Fatalf("n=%d: %d-slot cube routed to the map engine", n, s.NumEdgeSlots())
		}
		c, err := sparsehypercube.New(3, n)
		if err != nil {
			t.Fatal(err)
		}
		if !linecomm.SelectsSlotted(c) {
			t.Fatalf("n=%d: facade Cube routed to the map engine", n)
		}
	}
}
