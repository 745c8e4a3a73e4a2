package linecomm

import (
	"sparsehypercube/internal/bitvec"
)

// This file is the slotted engine of the streaming validators, the flat
// half of their two disjointness engines. It runs on any network that
// numbers its edges (SlottedNetwork): materialised graphs, whose CSR
// arrays give a dense numbering, and the sparse hypercube, whose edges
// each flip one address bit and so own the closed-form slot
// lower*n + dim. The fill phase resolves each hop's slot once — EdgeSlot
// doubles as the edge-existence check — and the merge phase indexes
// every per-round disjointness set by slot or vertex id: flat bit sets,
// with touched slots recorded and cleared between rounds, so the engine
// allocates once per validation run and nothing per round.
//
// The engine covers Definition 1's capacities (one call per edge and per
// receiver). mapState (stream.go) is the other engine: the reference the
// differential suites crosscheck this one against, and the fallback for
// networks without a slot numbering, universes beyond maxStreamBits and
// generalised capacities.

// slottedFor reports whether net can drive the slotted engines: it must
// carry a slot numbering, and both its vertex and slot universes must
// fit maxStreamBits (so every id also fits the engines' int32 lists).
func slottedFor(net Network, order uint64) (SlottedNetwork, bool) {
	sn, ok := net.(SlottedNetwork)
	if !ok || order > maxStreamBits || uint64(sn.NumEdgeSlots()) > maxStreamBits {
		return nil, false
	}
	return sn, true
}

// csrState is the slotted round state of ValidateStream under
// Definition 1. Edge and receiver uses are used/dup bit-set pairs (the
// dup shadow reproduces mapState's report-once-at-capacity+1 contract);
// callers are a bit set whose duplicate index is recovered by a scan of
// the registered claims.
type csrState struct {
	count uint64

	informed          *bitvec.Set // order bits
	edgeUsed, edgeDup *bitvec.Set // NumEdgeSlots bits each
	recvUsed, recvDup *bitvec.Set // order bits each
	callerUsed        *bitvec.Set // order bits

	round          Round
	claimed        []int // call indices that registered a caller, in order
	touchedEdges   []int32
	touchedRecvs   []int32
	touchedCallers []int32
	newly          []uint64
}

func newCSRState(sn SlottedNetwork, order, source uint64) *csrState {
	st := &csrState{
		count:      1,
		informed:   bitvec.New(int(order)),
		edgeUsed:   bitvec.New(sn.NumEdgeSlots()),
		edgeDup:    bitvec.New(sn.NumEdgeSlots()),
		recvUsed:   bitvec.New(int(order)),
		recvDup:    bitvec.New(int(order)),
		callerUsed: bitvec.New(int(order)),
	}
	st.informed.Set(int(source))
	return st
}

func (c *csrState) isInformed(v uint64) bool { return c.informed.Get(int(v)) }

func (c *csrState) seedInformed(vs []uint64) {
	for _, v := range vs {
		if !c.informed.TestAndSet(int(v)) {
			c.count++
		}
	}
}

func (c *csrState) beginRound(r Round) { c.round = r }

func (c *csrState) callerClaim(v uint64, ci int) (int, bool) {
	if !c.callerUsed.TestAndSet(int(v)) {
		c.touchedCallers = append(c.touchedCallers, int32(v))
		c.claimed = append(c.claimed, ci)
		return 0, false
	}
	// Duplicate: recover the first claiming call's index by scanning the
	// registered claims (rare — only on an actual violation).
	for _, idx := range c.claimed {
		if c.round[idx].Path[0] == v {
			return idx, true
		}
	}
	return 0, true // unreachable: a set caller bit implies a claim
}

func (c *csrState) hopUse(_, _ uint64, slot int32) bool {
	if !c.edgeUsed.TestAndSet(int(slot)) {
		c.touchedEdges = append(c.touchedEdges, slot)
		return false
	}
	return !c.edgeDup.TestAndSet(int(slot))
}

func (c *csrState) recvUse(v uint64) bool {
	if !c.recvUsed.TestAndSet(int(v)) {
		c.touchedRecvs = append(c.touchedRecvs, int32(v))
		return false
	}
	return !c.recvDup.TestAndSet(int(v))
}

func (c *csrState) inform(v uint64) { c.newly = append(c.newly, v) }

func (c *csrState) endRound() uint64 {
	for _, v := range c.newly {
		if !c.informed.TestAndSet(int(v)) {
			c.count++
		}
	}
	for _, s := range c.touchedEdges {
		c.edgeUsed.Clear(int(s))
		c.edgeDup.Clear(int(s))
	}
	for _, s := range c.touchedRecvs {
		c.recvUsed.Clear(int(s))
		c.recvDup.Clear(int(s))
	}
	for _, s := range c.touchedCallers {
		c.callerUsed.Clear(int(s))
	}
	c.newly = c.newly[:0]
	c.touchedEdges = c.touchedEdges[:0]
	c.touchedRecvs = c.touchedRecvs[:0]
	c.touchedCallers = c.touchedCallers[:0]
	c.claimed = c.claimed[:0]
	c.round = nil
	return c.count
}

func (c *csrState) informedCount() uint64 { return c.count }

// gossipCsrState is the slotted telephone-model round state. Gossip
// reports every edge reuse (not just the first), so a plain bit per slot
// suffices; endpoint occupancy is a bit per vertex with the same
// first-claim recovery scan.
type gossipCsrState struct {
	edgeUsed *bitvec.Set // NumEdgeSlots bits
	busyUsed *bitvec.Set // order bits

	round        Round
	claimed      []int // calls that registered at least one endpoint, ascending
	touchedEdges []int32
	touchedBusy  []int32
}

func newGossipCSRState(sn SlottedNetwork, order uint64) *gossipCsrState {
	return &gossipCsrState{
		edgeUsed: bitvec.New(sn.NumEdgeSlots()),
		busyUsed: bitvec.New(int(order)),
	}
}

func (g *gossipCsrState) beginRound(r Round) { g.round = r }

func (g *gossipCsrState) busyClaim(v uint64, ci int) (int, bool) {
	if !g.busyUsed.TestAndSet(int(v)) {
		g.touchedBusy = append(g.touchedBusy, int32(v))
		if len(g.claimed) == 0 || g.claimed[len(g.claimed)-1] != ci {
			g.claimed = append(g.claimed, ci)
		}
		return 0, false
	}
	// Duplicate: recover the first occupying call by scanning the calls
	// that registered endpoints, in order (rare — only on a violation).
	// The first claimed call whose endpoint matches v is the occupier: any
	// non-claiming match would itself have been preceded by the claimer.
	for _, idx := range g.claimed {
		if c := g.round[idx]; c.From() == v || c.To() == v {
			return idx, true
		}
	}
	return 0, true // unreachable: a set busy bit implies a registered claim
}

func (g *gossipCsrState) hopUse(_, _ uint64, slot int32) bool {
	if !g.edgeUsed.TestAndSet(int(slot)) {
		g.touchedEdges = append(g.touchedEdges, slot)
		return false
	}
	return true
}

func (g *gossipCsrState) endRound() {
	for _, s := range g.touchedEdges {
		g.edgeUsed.Clear(int(s))
	}
	for _, s := range g.touchedBusy {
		g.busyUsed.Clear(int(s))
	}
	g.touchedEdges = g.touchedEdges[:0]
	g.touchedBusy = g.touchedBusy[:0]
	g.claimed = g.claimed[:0]
	g.round = nil
}
