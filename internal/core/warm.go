package core

import (
	"snd/internal/flow"
	"snd/internal/opinion"
)

// This file implements warm-started transportation solves for the
// bipartite term pipeline. Each engine worker retains, in its scratch
// arena, a small byte-budgeted ring of recently solved flow networks
// ("bases"): the routed flow plus the final node potentials, keyed by
// the term's reduced structure (reference-state fingerprint, opinion,
// orientation, supplier/consumer/bank user lists).
//
// A new term consults the ring before solving:
//
//   - Exact hit: the ground distance (reference fingerprint + opinion +
//     orientation) and the whole reduced structure match a retained
//     basis. The instance is then identical arc-for-arc, so its
//     retained optimal cost is the answer — no SSSP fan-out, no
//     assembly, no solve. This is what repeated Series/Matrix traffic
//     over the same states hits.
//   - Transplant: a basis with the same orientation shares enough
//     supplier/consumer users (at least half of the new instance). The
//     term is assembled as usual with fresh costs, the donor's routed
//     flow and potentials are replayed onto the matching arcs and
//     nodes by user identity, and flow.SolveSSPWarm repairs dual
//     feasibility and drains the residual imbalance — a handful of
//     augmentations where a cold solve pays one per supplier. This is
//     what monitoring and nearest-neighbor traffic over slowly
//     evolving states hits.
//
// Either way the returned cost is the exact optimum (it is unique), so
// distances are bit-identical to cold solves; EngineConfig.WarmCacheBytes
// < 0 pins the cold pipeline. The ring is per-worker state: no locks, and hit
// rates degrade gracefully when terms scatter across workers.
//
// Multicore audit note: the ring lives in the worker's scratch arena
// (scratch.warm), so it is already fully sharded — no mutex, no
// shared map, no atomic in any warm path; nothing here can serialize
// workers. The budget is likewise split up front (NewEngine divides
// WarmCacheBytes by the worker count), so there is no cross-worker
// rebalancing to contend on. The cost of this shape is lower hit
// rates when the same term lands on different workers across batches;
// that is a throughput trade, not a contention point, and the
// scalingcores benchmark measures it (warm vs cold Series rows).

// warmMinArcs is the smallest instance the warm cache bothers with:
// below it a cold solve costs about as much as the bookkeeping.
const warmMinArcs = 64

// maxWarmEntries caps the ring length regardless of byte budget:
// findWarm scans the ring linearly per term, and structure-only
// entries are cheap enough (about 256 bytes) that a long session
// would otherwise accumulate tens of thousands of them, turning every
// lookup into a multi-millisecond sweep for hits with negligible
// probability. A few hundred entries cover any realistic reuse window
// (a Series/Matrix pass over dozens of states stores four bases per
// pair).
const maxWarmEntries = 768

// warmBasis is one retained solved instance. Retention is two-tier:
// the structure and optimal cost (cheap — a few KB) serve exact hits,
// while the solved network (routed flow + potentials, tens of MB on
// large terms) serves transplants. Under budget pressure the networks
// of older bases are stripped first, so a long Series/Matrix history
// keeps exact-matching whole instances long after their transplant
// donors are gone.
type warmBasis struct {
	refHash               hashKey
	op                    opinion.Opinion
	reversed              bool
	red                   reduction // reduce() output; slices are owned (fresh per reduce)
	arcs                  int       // forward-arc count of the instance
	cost                  int64     // optimal scaled cost
	priceDiv              int64     // divide retained prices by this (cost-scaling bases)
	nw                    *flow.Network
	netBytes, structBytes int64
}

// warmCache is a per-worker byte-budgeted ring of bases, oldest first.
// Three quarters of the budget hold solved networks (transplant
// donors), one quarter holds structures (exact-hit memos).
type warmCache struct {
	netBudget, structBudget int64
	netBytes, structBytes   int64
	entries                 []*warmBasis
	free                    []*flow.Network // stripped networks, recycled by scratch.network
}

func newWarmCache(budget int64) *warmCache {
	if budget <= 0 {
		return nil
	}
	return &warmCache{netBudget: budget - budget/4, structBudget: budget / 4}
}

// takeFree pops a recycled network, if any.
func (wc *warmCache) takeFree() *flow.Network {
	if wc == nil || len(wc.free) == 0 {
		return nil
	}
	nw := wc.free[len(wc.free)-1]
	wc.free = wc.free[:len(wc.free)-1]
	return nw
}

// stripNet detaches an entry's network into the free list.
func (wc *warmCache) stripNet(e *warmBasis) {
	wc.netBytes -= e.netBytes
	if len(wc.free) < 2 {
		wc.free = append(wc.free, e.nw)
	}
	e.nw = nil
	e.netBytes = 0
}

// store retains a basis as the newest entry: networks of older entries
// are stripped past the network budget (the newest always keeps its
// network), and whole oldest entries drop past the structure budget.
func (wc *warmCache) store(wb *warmBasis) {
	wc.entries = append(wc.entries, wb)
	wc.structBytes += wb.structBytes
	wc.netBytes += wb.netBytes
	for i := 0; i < len(wc.entries)-1 && wc.netBytes > wc.netBudget; i++ {
		if e := wc.entries[i]; e.nw != nil {
			wc.stripNet(e)
		}
	}
	for (wc.structBytes > wc.structBudget || len(wc.entries) > maxWarmEntries) &&
		len(wc.entries) > 1 {
		old := wc.entries[0]
		wc.entries = wc.entries[1:]
		wc.structBytes -= old.structBytes
		if old.nw != nil {
			wc.stripNet(old)
		}
	}
}

// refresh moves a hit entry to the newest position.
func (wc *warmCache) refresh(wb *warmBasis) {
	for i, e := range wc.entries {
		if e == wb {
			copy(wc.entries[i:], wc.entries[i+1:])
			wc.entries[len(wc.entries)-1] = wb
			return
		}
	}
}

// netFootprint estimates a solved network's retained bytes (arc banks
// dominate, plus node arrays).
func netFootprint(nw *flow.Network) int64 {
	return int64(nw.NumArcs())*48 + int64(nw.N())*24
}

// structFootprint estimates a basis's structure bytes: the reduced
// user lists plus fixed overhead.
func structFootprint(red reduction) int64 {
	members := 0
	for _, b := range red.banks {
		members += len(b.members)
	}
	return int64(len(red.S)+len(red.C)+members)*4 + 256
}

// --- instance marking (user -> slot maps with epoch-stamped validity) ---

// markInstance publishes the new instance's user->slot maps in the
// scratch arena: supplier index, consumer index, and bank index by
// anchor (first member) user. Valid until the next markInstance call.
func (sc *scratch) markInstance(n int, red reduction) {
	if cap(sc.slotEpoch) < n {
		sc.slotEpoch = make([]uint32, n)
		sc.slotSup = make([]int32, n)
		sc.slotCon = make([]int32, n)
		sc.slotBank = make([]int32, n)
	}
	sc.slotEpoch = sc.slotEpoch[:n]
	sc.slotSup = sc.slotSup[:n]
	sc.slotCon = sc.slotCon[:n]
	sc.slotBank = sc.slotBank[:n]
	sc.slotGen++
	if sc.slotGen == 0 { // wrapped: stamp array may hold stale matches
		for i := range sc.slotEpoch {
			sc.slotEpoch[i] = 0
		}
		sc.slotGen = 1
	}
	gen := sc.slotGen
	touch := func(u int32) {
		if sc.slotEpoch[u] != gen {
			sc.slotEpoch[u] = gen
			sc.slotSup[u] = -1
			sc.slotCon[u] = -1
			sc.slotBank[u] = -1
		}
	}
	for i, u := range red.S {
		touch(u)
		sc.slotSup[u] = int32(i)
	}
	for j, u := range red.C {
		touch(u)
		sc.slotCon[u] = int32(j)
	}
	for b := range red.banks {
		u := red.banks[b].members[0]
		touch(u)
		sc.slotBank[u] = int32(b)
	}
}

func (sc *scratch) supSlot(u int32) (int32, bool) {
	if sc.slotEpoch[u] != sc.slotGen || sc.slotSup[u] < 0 {
		return -1, false
	}
	return sc.slotSup[u], true
}

func (sc *scratch) conSlot(u int32) (int32, bool) {
	if sc.slotEpoch[u] != sc.slotGen || sc.slotCon[u] < 0 {
		return -1, false
	}
	return sc.slotCon[u], true
}

func (sc *scratch) bankSlot(u int32) (int32, bool) {
	if sc.slotEpoch[u] != sc.slotGen || sc.slotBank[u] < 0 {
		return -1, false
	}
	return sc.slotBank[u], true
}

// --- matching ---

func int32Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameStructure reports whether the basis's reduced instance is
// arc-for-arc identical to red.
func (wb *warmBasis) sameStructure(red reduction) bool {
	if wb.red.scale != red.scale || wb.red.banksOnSupplier != red.banksOnSupplier {
		return false
	}
	if !int32Equal(wb.red.S, red.S) || !int32Equal(wb.red.C, red.C) {
		return false
	}
	if len(wb.red.banks) != len(red.banks) {
		return false
	}
	for b := range red.banks {
		if wb.red.banks[b].units != red.banks[b].units ||
			!int32Equal(wb.red.banks[b].members, red.banks[b].members) {
			return false
		}
	}
	return true
}

// findWarm scans the ring newest-first (markInstance must have been
// called for red) and returns an exact instance match, or failing that
// the best-overlapping transplant donor, or neither. Every entry can
// exact-match (the refHash/size prefilter makes misses O(1)); only
// entries still holding their network can donate.
func (sc *scratch) findWarm(refHash hashKey, spec termSpec, red reduction) (exact, donor *warmBasis) {
	wc := sc.warm
	if wc == nil {
		return nil, nil
	}
	newSize := len(red.S) + len(red.C)
	newArcs := len(red.S) * (len(red.C) + len(red.banks))
	if red.banksOnSupplier {
		newArcs = (len(red.S) + len(red.banks)) * len(red.C)
	}
	bestScore := 0
	const maxScan = 12 // donors scored per lookup
	scanned := 0
	for i := len(wc.entries) - 1; i >= 0; i-- {
		wb := wc.entries[i]
		if wb.op != spec.op || wb.reversed != red.banksOnSupplier {
			continue
		}
		if wb.refHash == refHash && wb.sameStructure(red) {
			return wb, nil
		}
		// Transplants only pay off on instances big enough to make a
		// cold solve expensive, from donors that still hold their
		// network and are not so much bigger that the replay itself
		// dominates.
		if wb.nw == nil || scanned >= maxScan ||
			newArcs < warmMinArcs || wb.arcs > 4*newArcs {
			continue
		}
		scanned++
		score := 0
		for _, u := range wb.red.S {
			if _, ok := sc.supSlot(u); ok {
				score++
			}
		}
		for _, u := range wb.red.C {
			if _, ok := sc.conSlot(u); ok {
				score++
			}
		}
		if score > bestScore {
			bestScore = score
			donor = wb
		}
	}
	if 2*bestScore < newSize {
		donor = nil // too little overlap: transplant would be junk
	}
	return nil, donor
}

// --- transplant ---

// arcID returns the forward-arc id of the (i, j)-th supplier-consumer
// arc (or bank arc) under the deterministic assembly order of
// termBipartiteNetwork: forward orientation lays out, per supplier, nC
// consumer arcs then nB bank arcs; reverse orientation lays out all
// nS*nC supplier-consumer arcs first, then per-bank consumer arcs.
func arcSC(reversed bool, nS, nC, nB, i, j int) int {
	if reversed {
		return 2 * (i*nC + j)
	}
	return 2 * (i*(nC+nB) + j)
}

func arcBank(reversed bool, nS, nC, nB, b, k int) int {
	if reversed {
		return 2 * (nS*nC + b*nC + k) // bank b -> consumer k
	}
	return 2 * (k*(nC+nB) + nC + b) // supplier k -> bank b
}

// nodeIDs returns the network node index of supplier i, consumer j, and
// bank b under the assembly layout.
func nodeSup(reversed bool, nS, nB, i int) int { return i }
func nodeCon(reversed bool, nS, nB, j int) int {
	if reversed {
		return nS + nB + j
	}
	return nS + j
}
func nodeBank(reversed bool, nS, nC, b int) int {
	if reversed {
		return nS + b
	}
	return nS + nC + b
}

// transplant replays donor wb's routed flow and node potentials onto
// the freshly assembled nw (the new instance, excesses and fresh costs
// already in place), matching suppliers, consumers, and banks by user
// identity. markInstance must have been called for red. Unmatched
// donor flow is simply dropped; SolveSSPWarm absorbs every imperfection.
func (sc *scratch) transplant(nw *flow.Network, red reduction, wb *warmBasis) {
	rev := red.banksOnSupplier
	nS, nC, nB := len(red.S), len(red.C), len(red.banks)
	dnS, dnC, dnB := len(wb.red.S), len(wb.red.C), len(wb.red.banks)
	div := wb.priceDiv
	if div <= 0 {
		div = 1
	}

	// Map donor slots to new slots once.
	supMap := sc.takeMap(&sc.mapSup, dnS)
	for i, u := range wb.red.S {
		supMap[i] = -1
		if ni, ok := sc.supSlot(u); ok {
			supMap[i] = ni
		}
	}
	conMap := sc.takeMap(&sc.mapCon, dnC)
	for j, u := range wb.red.C {
		conMap[j] = -1
		if nj, ok := sc.conSlot(u); ok {
			conMap[j] = nj
		}
	}
	bankMap := sc.takeMap(&sc.mapBank, dnB)
	for b := range wb.red.banks {
		bankMap[b] = -1
		if nb, ok := sc.bankSlot(wb.red.banks[b].members[0]); ok {
			bankMap[b] = nb
		}
	}

	// Potentials. Unmapped nodes are handled after the mapped pass:
	// the drain's potentials are non-negative and grow toward the
	// demand side, so a supply-side node left at zero would see every
	// outgoing arc's reduced cost go negative and the saturation
	// repair would dump its whole capacity as junk flow. Seeding
	// unmapped supply-side nodes with the maximum mapped potential
	// keeps all their arcs non-negative; unmapped demand-side nodes
	// are safe at zero (arcs into them only gain reduced cost).
	var pMax int64
	seed := func(node, donorNode int) {
		p := wb.nw.Price(donorNode) / div
		nw.SetPrice(node, p)
		if p > pMax {
			pMax = p
		}
	}
	for i, ni := range supMap {
		if ni >= 0 {
			seed(nodeSup(rev, nS, nB, int(ni)), nodeSup(rev, dnS, dnB, i))
		}
	}
	for j, nj := range conMap {
		if nj >= 0 {
			seed(nodeCon(rev, nS, nB, int(nj)), nodeCon(rev, dnS, dnB, j))
		}
	}
	for b, nb := range bankMap {
		if nb >= 0 {
			seed(nodeBank(rev, nS, nC, int(nb)), nodeBank(rev, dnS, dnC, b))
		}
	}
	markMapped := func() []int32 { // mapped flags by new node id
		m := sc.takeMap(&sc.mapNodes, nw.N())
		for i := range m {
			m[i] = 0
		}
		for _, ni := range supMap {
			if ni >= 0 {
				m[nodeSup(rev, nS, nB, int(ni))] = 1
			}
		}
		for _, nj := range conMap {
			if nj >= 0 {
				m[nodeCon(rev, nS, nB, int(nj))] = 1
			}
		}
		for _, nb := range bankMap {
			if nb >= 0 {
				m[nodeBank(rev, nS, nC, int(nb))] = 1
			}
		}
		return m
	}
	mapped := markMapped()
	for v := 0; v < nw.N(); v++ {
		if mapped[v] == 0 && nw.Excess(v) > 0 {
			nw.SetPrice(v, pMax)
		}
	}

	// Routed flow, replayed arc by arc (PreloadFlow clamps to the new
	// capacities).
	for i, ni := range supMap {
		if ni < 0 {
			continue
		}
		for j, nj := range conMap {
			if nj < 0 {
				continue
			}
			f := wb.nw.Flow(arcSC(rev, dnS, dnC, dnB, i, j))
			if f > 0 {
				nw.PreloadFlow(arcSC(rev, nS, nC, nB, int(ni), int(nj)), f)
			}
		}
	}
	for b, nb := range bankMap {
		if nb < 0 {
			continue
		}
		// Bank arcs pair the bank with every opposite-side entity:
		// consumers when reversed (bank supplies), suppliers otherwise.
		if rev {
			for j, nj := range conMap {
				if nj < 0 {
					continue
				}
				f := wb.nw.Flow(arcBank(rev, dnS, dnC, dnB, b, j))
				if f > 0 {
					nw.PreloadFlow(arcBank(rev, nS, nC, nB, int(nb), int(nj)), f)
				}
			}
		} else {
			for i, ni := range supMap {
				if ni < 0 {
					continue
				}
				f := wb.nw.Flow(arcBank(rev, dnS, dnC, dnB, b, i))
				if f > 0 {
					nw.PreloadFlow(arcBank(rev, nS, nC, nB, int(nb), int(ni)), f)
				}
			}
		}
	}
}

// takeMap returns an n-sized int32 buffer from the arena slot.
func (sc *scratch) takeMap(slot *[]int32, n int) []int32 {
	if cap(*slot) < n {
		*slot = make([]int32, n)
	}
	*slot = (*slot)[:n]
	return *slot
}
