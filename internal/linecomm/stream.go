package linecomm

import (
	"fmt"
	"iter"
	"runtime"
	"sync"

	"sparsehypercube/internal/graph"
)

// This file is the streaming half of the validator: ValidateStream
// consumes rounds as a producer (core.ScheduleRounds, a network feed, a
// decoder) emits them, so a schedule never has to be materialised to be
// checked. Per round it runs in two phases:
//
//  1. fill — the structural checks that are independent between calls
//     (path shape, vertex range, edge existence, length bound, caller
//     knowledge) are sharded across a pool of goroutines;
//  2. merge — the cross-call disjointness checks (duplicate callers,
//     edge conflicts, receiver conflicts) run serially over the phase-1
//     records, in call order, so the produced Result is byte-for-byte
//     identical to the sequential Validate.
//
// The merge phase runs on one of two disjointness engines
// (newRoundState): on any network that numbers its edges
// (SlottedNetwork — materialised CSR graphs and the sparse hypercube
// qualify) under Definition 1 capacities, the flat slotted csrState in
// csr.go, fed the edge slots the fill phase resolved; for everything
// else, generalised capacities included, the same per-round maps the
// sequential validator uses (mapState, the differential suites'
// reference engine), still streamed and still sharded in phase 1.

const (
	// maxStreamBits caps the slotted engine's vertex and edge-slot
	// universes (order and NumEdgeSlots bits); larger instances use the
	// map engine.
	maxStreamBits = 1 << 31
	// streamShardChunk is the minimum number of calls worth handing to a
	// structural-check goroutine.
	streamShardChunk = 1024
)

// streamBlock is the number of calls checked per fill/merge cycle. It
// bounds the validator's extra memory at O(streamBlock) records
// regardless of round width. A variable so tests can shrink it to cover
// the multi-block merge path with narrow rounds.
var streamBlock = 1 << 16

// call stages decided by the fill phase, mirroring the sequential
// validator's early-continue points.
const (
	stageSkip   uint8 = iota // too short or out of range: no further checks
	stageCaller              // structurally bad: duplicate-caller check only
	stageFull                // all cross-call checks apply
)

// ValidateStream checks a streamed schedule from source against the
// classic k-line model (Definition 1) on net. It consumes rounds as they
// are produced — yielded rounds may reuse storage between iterations —
// and returns the same Result, violation for violation, that Validate
// returns on the materialised schedule.
func ValidateStream(net Network, k int, source uint64, rounds iter.Seq[Round]) *Result {
	return ValidateStreamOpts(net, k, source, rounds, DefaultOptions())
}

// ValidateStreamOpts is ValidateStream under the generalised model of
// ValidateOpts.
func ValidateStreamOpts(net Network, k int, source uint64, rounds iter.Seq[Round], opts Options) *Result {
	res := ValidateStreamSeeded(net, k, source, nil, 0, rounds, opts, 0)
	order := net.Order()
	// An order-0 network is never "complete" (the source-out-of-range
	// violation is already in res), and the guard keeps MinimumRounds —
	// undefined at 0 — from being evaluated.
	res.Complete = order > 0 && res.Informed == order
	res.MinimumTime = res.Complete && len(res.InformedPerRound) == MinimumRounds(order)
	return res
}

// newRoundState picks the disjointness engine for one validation run:
// the slotted engine when net numbers its edges within the size cap and
// the capacities are Definition 1's, the per-round reference maps
// otherwise. sn is the slot numbering the fill phase resolves hops
// against, nil for the map engine.
func newRoundState(net Network, order, source uint64, opts Options) (st roundState, sn SlottedNetwork) {
	if sn, ok := slottedFor(net, order); ok && opts.EdgeCapacity == 1 && opts.ReceiverCapacity == 1 {
		return newCSRState(sn, order, source), sn
	}
	return newMapState(source, opts), nil
}

// roundState tracks the informed set and the per-round disjointness
// constraints. All methods are called from the serial merge phase except
// isInformed, which the fill phase reads concurrently; implementations
// must not mutate state visible to isInformed between beginRound and
// endRound.
type roundState interface {
	isInformed(v uint64) bool
	// beginRound resets per-round tracking; r is retained until endRound
	// (the slotted engine scans it to recover duplicate-caller indices).
	beginRound(r Round)
	// callerClaim registers call ci as placed by v. When v already placed
	// a call this round it reports that call's index instead.
	callerClaim(v uint64, ci int) (prev int, dup bool)
	// hopUse registers one use of edge {u,v}, whose slot the fill phase
	// resolved (zero on the map engine, which keys by endpoints), and
	// reports whether this use is the first beyond capacity (true
	// exactly once per edge).
	hopUse(u, v uint64, slot int32) bool
	// recvUse registers one call targeting v, same contract as hopUse.
	recvUse(v uint64) bool
	// inform buffers v as newly informed; applied at endRound, matching
	// the model's end-of-round knowledge update.
	inform(v uint64)
	// endRound applies buffered informs, clears round state and returns
	// the informed count.
	endRound() uint64
	informedCount() uint64
	// seedInformed marks vs informed before any round runs — the range
	// validator's way of entering mid-schedule. Duplicates (and the
	// source) are fine; counting stays exact.
	seedInformed(vs []uint64)
}

// streamValidator drives the fill/merge cycle and owns the reusable
// buffers, so steady-state validation of a valid schedule allocates
// (amortised) nothing per call.
type streamValidator struct {
	net        Network
	k          int
	order      uint64
	opts       Options
	st         roundState
	res        *Result
	fillShards int // fill-phase goroutine budget

	// Slot numbering of the slotted engine (nil on the map engine), and
	// gg, its devirtualised form when the network is a GraphNetwork.
	sn SlottedNetwork
	gg *graph.Graph

	stages     []uint8
	shardViols [][]Violation
	violBuf    []Violation
	// hopOff[i] indexes call i of the current block into slots, where the
	// fill workers record each hop's resolved edge slot for the merge
	// (slotted engine only).
	hopOff []int32
	slots  []int32
}

// newStreamValidator sets up one validation run on its engine;
// fillShards <= 0 means GOMAXPROCS.
func newStreamValidator(net Network, k int, order, source uint64, opts Options, res *Result, fillShards int) *streamValidator {
	st, sn := newRoundState(net, order, source, opts)
	if fillShards <= 0 {
		// Resolved once: GOMAXPROCS takes a runtime lock, and this would
		// otherwise sit on the per-round path of many-round schedules.
		fillShards = runtime.GOMAXPROCS(0)
	}
	v := &streamValidator{net: net, k: k, order: order, opts: opts, st: st, res: res, fillShards: fillShards, sn: sn}
	if gn, ok := sn.(GraphNetwork); ok {
		v.gg = gn.G
	}
	return v
}

func (v *streamValidator) validateRound(ri int, round Round) {
	v.st.beginRound(round)
	for base := 0; base < len(round); base += streamBlock {
		blk := round[base:min(base+streamBlock, len(round))]
		stages, viols := v.fillBlock(ri, base, blk)
		v.mergeBlock(ri, base, blk, stages, viols)
	}
	v.res.InformedPerRound = append(v.res.InformedPerRound, v.st.endRound())
}

// fillBlock runs the structural checks for one block of calls, sharded
// across goroutines. It returns the per-call stages and the structural
// violations sorted by call index (workers own contiguous ascending
// chunks, so concatenating their buffers in worker order is sorted).
func (v *streamValidator) fillBlock(ri, base int, blk Round) ([]uint8, []Violation) {
	if cap(v.stages) < len(blk) {
		v.stages = make([]uint8, len(blk))
	}
	stages := v.stages[:len(blk)]

	if v.sn != nil {
		v.layoutSlots(blk)
	}

	workers := v.fillShards
	if w := (len(blk) + streamShardChunk - 1) / streamShardChunk; w < workers {
		workers = w
	}
	for len(v.shardViols) < max(workers, 1) {
		v.shardViols = append(v.shardViols, nil)
	}
	if workers <= 1 {
		v.shardViols[0] = v.checkCalls(ri, base, blk, 0, len(blk), stages, v.shardViols[0][:0])
		return stages, v.shardViols[0]
	}

	chunk := (len(blk) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(blk))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			v.shardViols[w] = v.checkCalls(ri, base, blk, lo, hi, stages, v.shardViols[w][:0])
		}(w, lo, hi)
	}
	wg.Wait()
	v.violBuf = v.violBuf[:0]
	for w := 0; w < workers; w++ {
		v.violBuf = append(v.violBuf, v.shardViols[w]...)
	}
	return stages, v.violBuf
}

// layoutSlots prefix-sums the block's hop counts into hopOff, so fill
// workers write resolved slots into disjoint regions of one flat buffer.
func (v *streamValidator) layoutSlots(blk Round) {
	if cap(v.hopOff) < len(blk)+1 {
		v.hopOff = make([]int32, len(blk)+1)
	}
	v.hopOff = v.hopOff[:len(blk)+1]
	total := int32(0)
	for i, c := range blk {
		v.hopOff[i] = total
		if h := len(c.Path) - 1; h > 0 {
			total += int32(h)
		}
	}
	v.hopOff[len(blk)] = total
	if cap(v.slots) < int(total) {
		v.slots = make([]int32, total)
	}
	v.slots = v.slots[:total]
}

// hopSlots returns call i's region of the resolved-slot buffer, or nil
// on the map engine, which resolves no slots.
func (v *streamValidator) hopSlots(i int) []int32 {
	if v.sn == nil {
		return nil
	}
	return v.slots[v.hopOff[i]:v.hopOff[i+1]]
}

// checkCalls is the fill-phase worker body for calls [lo, hi) of blk.
func (v *streamValidator) checkCalls(ri, base int, blk Round, lo, hi int, stages []uint8, out []Violation) []Violation {
	for i := lo; i < hi; i++ {
		stages[i], out = v.checkCall(ri, base+i, blk[i], v.hopSlots(i), out)
	}
	return out
}

// checkCall mirrors the sequential validator's per-call structural
// section, including its violation order and early-exit points.
// hopSlots receives each hop's resolved edge slot on the slotted engine
// (valid whenever the returned stage is stageFull; nil on the map
// engine).
func (v *streamValidator) checkCall(ri, ci int, call Call, hopSlots []int32, out []Violation) (uint8, []Violation) {
	if len(call.Path) < 2 {
		return stageSkip, append(out, Violation{ri, ci, PathInvalid,
			fmt.Sprintf("path has %d vertices", len(call.Path))})
	}
	bad := false
	for _, u := range call.Path {
		if u >= v.order {
			out = append(out, Violation{ri, ci, VertexOutOfRange,
				fmt.Sprintf("vertex %d outside [0,%d)", u, v.order)})
			bad = true
		}
	}
	if bad {
		return stageSkip, out
	}
	out, bad = appendRepeatViolations(out, ri, ci, call.Path)
	// On the slotted engine EdgeSlot is the edge-existence check and its
	// slot is kept for the merge phase. Path vertices are already known
	// in range, so the devirtualised graph call is safe.
	for i := 1; i < len(call.Path); i++ {
		a, b := call.Path[i-1], call.Path[i]
		var s int
		var ok bool
		switch {
		case v.gg != nil:
			s, ok = v.gg.EdgeSlot(int(a), int(b))
		case v.sn != nil:
			s, ok = v.sn.EdgeSlot(a, b)
		default:
			ok = v.net.HasEdge(a, b)
		}
		if !ok {
			out = append(out, Violation{ri, ci, PathInvalid, fmt.Sprintf("no edge {%d,%d}", a, b)})
			bad = true
			continue
		}
		if hopSlots != nil {
			hopSlots[i-1] = int32(s)
		}
	}
	if call.Length() > v.k {
		out = append(out, Violation{ri, ci, PathTooLong,
			fmt.Sprintf("length %d > k = %d", call.Length(), v.k)})
	}
	if !v.st.isInformed(call.Path[0]) {
		out = append(out, Violation{ri, ci, CallerUninformed,
			fmt.Sprintf("caller %d not informed", call.Path[0])})
	}
	if bad {
		return stageCaller, out
	}
	return stageFull, out
}

// appendRepeatViolations reports every path vertex equal to an earlier
// one. Paths are short (<= k+1 hops in real schedules), so a quadratic
// scan beats a hash map; pathological inputs fall back to a map.
func appendRepeatViolations(out []Violation, ri, ci int, path []uint64) ([]Violation, bool) {
	bad := false
	if len(path) <= 32 {
		for i, u := range path {
			for _, w := range path[:i] {
				if w == u {
					out = append(out, Violation{ri, ci, PathInvalid,
						fmt.Sprintf("vertex %d repeated on path", u)})
					bad = true
					break
				}
			}
		}
		return out, bad
	}
	seen := make(map[uint64]bool, len(path))
	for _, u := range path {
		if seen[u] {
			out = append(out, Violation{ri, ci, PathInvalid,
				fmt.Sprintf("vertex %d repeated on path", u)})
			bad = true
		}
		seen[u] = true
	}
	return out, bad
}

// mergeBlock interleaves the fill-phase violations with the cross-call
// disjointness checks, in call order, reproducing Validate's sequence.
func (v *streamValidator) mergeBlock(ri, base int, blk Round, stages []uint8, viols []Violation) {
	vi := 0
	for i, call := range blk {
		ci := base + i
		for vi < len(viols) && viols[vi].Call == ci {
			v.res.Violations = append(v.res.Violations, viols[vi])
			vi++
		}
		if stages[i] == stageSkip {
			continue
		}
		if l := call.Length(); l > v.res.MaxCallLength {
			v.res.MaxCallLength = l
		}
		if prev, dup := v.st.callerClaim(call.Path[0], ci); dup {
			v.res.Violations = append(v.res.Violations, Violation{ri, ci, CallerDuplicate,
				fmt.Sprintf("caller %d already placed call %d", call.Path[0], prev)})
		}
		if stages[i] != stageFull {
			continue
		}
		hs := v.hopSlots(i)
		for h := 1; h < len(call.Path); h++ {
			var slot int32
			if hs != nil {
				slot = hs[h-1]
			}
			if v.st.hopUse(call.Path[h-1], call.Path[h], slot) {
				e := mkEdge(call.Path[h-1], call.Path[h])
				v.res.Violations = append(v.res.Violations, Violation{ri, ci, EdgeConflict,
					fmt.Sprintf("edge {%d,%d} used %d times, capacity %d",
						e.u, e.v, v.opts.EdgeCapacity+1, v.opts.EdgeCapacity)})
			}
		}
		to := call.Path[len(call.Path)-1]
		if v.st.recvUse(to) {
			v.res.Violations = append(v.res.Violations, Violation{ri, ci, ReceiverConflict,
				fmt.Sprintf("receiver %d targeted %d times, capacity %d",
					to, v.opts.ReceiverCapacity+1, v.opts.ReceiverCapacity)})
		}
		if v.st.isInformed(to) && !v.opts.AllowInformedReceiver {
			v.res.Violations = append(v.res.Violations, Violation{ri, ci, ReceiverInformed,
				fmt.Sprintf("receiver %d already informed", to)})
		}
		v.st.inform(to)
	}
}

// mapState is the general-purpose round state: the same per-round hash
// maps the sequential validator uses, for networks that carry no edge
// numbering or exceed the slotted engine's size cap, and for generalised
// capacities. It doubles as the reference engine the differential
// suites crosscheck csrState against.
// The maps are allocated once and cleared — not remade — between
// rounds, so a steady-state round costs no allocations.
type mapState struct {
	opts     Options
	informed map[uint64]bool
	edges    map[edgeKey]int
	recvs    map[uint64]int
	callers  map[uint64]int
	newly    []uint64
}

func newMapState(source uint64, opts Options) *mapState {
	return &mapState{
		opts:     opts,
		informed: map[uint64]bool{source: true},
		edges:    make(map[edgeKey]int),
		recvs:    make(map[uint64]int),
		callers:  make(map[uint64]int),
	}
}

func (m *mapState) isInformed(v uint64) bool { return m.informed[v] }

func (m *mapState) seedInformed(vs []uint64) {
	for _, v := range vs {
		m.informed[v] = true
	}
}

func (m *mapState) beginRound(r Round) {
	clear(m.edges)
	clear(m.recvs)
	clear(m.callers)
	m.newly = m.newly[:0]
}

func (m *mapState) callerClaim(v uint64, ci int) (int, bool) {
	if prev, dup := m.callers[v]; dup {
		return prev, true
	}
	m.callers[v] = ci
	return 0, false
}

func (m *mapState) hopUse(u, v uint64, _ int32) bool {
	e := mkEdge(u, v)
	m.edges[e]++
	return m.edges[e] == m.opts.EdgeCapacity+1
}

func (m *mapState) recvUse(v uint64) bool {
	m.recvs[v]++
	return m.recvs[v] == m.opts.ReceiverCapacity+1
}

func (m *mapState) inform(v uint64) { m.newly = append(m.newly, v) }

func (m *mapState) endRound() uint64 {
	for _, v := range m.newly {
		m.informed[v] = true
	}
	return uint64(len(m.informed))
}

func (m *mapState) informedCount() uint64 { return uint64(len(m.informed)) }
