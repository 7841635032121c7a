package shard

import (
	"distflow/internal/vtree"
)

// The tree sweeps run level-synchronously: one superstep per depth
// level, bottom-up for SubtreeSums (R's subtree aggregation) and
// top-down for RootPathSums (Rᵀ's root-path accumulation). The
// sequential sweeps add child
// contributions to each parent in descending topological-order
// position; because every child of a depth-d vertex sits at depth d+1,
// processing whole levels preserves exactly that per-parent addition
// order as long as each receiver applies its incoming contributions
// sorted by descending child position — which the static schedule
// below precomputes, so the runtime does no sorting at all.
//
// Self-delivery is uniform: contributions to a parent the shard itself
// owns flow through the shard's own outbox (never shipped, never
// counted), so the apply walk reads every contribution from a buffer
// with one per-source running counter.
//
// A one-shard engine builds no schedule: it runs each tree's sequential
// SubtreeSumsInto/RootPathSumsInto — the addition order the schedule
// reproduces — and charges the same maxH rounds per sweep.

// sweepSched is the per-tree schedule; sh[k] is shard k's share.
type sweepSched struct {
	H  int
	sh []*shardSweep
}

// shardSweep is one shard's statically scheduled share of one tree's
// sweeps, concatenated by depth level (level l spans [off[l], off[l+1])
// of the corresponding flat arrays).
type shardSweep struct {
	// verts lists the owned vertices per level in ascending topological
	// position; owner[i] is the owner of verts[i]'s parent. The
	// bottom-up traversal iterates a level's segment in reverse
	// (descending position); the top-down application iterates it
	// forward.
	verts   []int32
	owner   []int8
	vertOff []int32 // len H+2

	// apply lists the bottom-up contributions to owned parents, per
	// level in descending child position — the sequential sweep's
	// per-parent addition order.
	applyParent []int32
	applySrc    []int8
	applyOff    []int32 // len H+2

	// send[j] lists, per level, the parent vertices whose values this
	// shard ships to peer j during the top-down sweep, in j's traversal
	// order; sendOff[j] is its level offset table (nil when no traffic
	// toward j).
	send    [][]int32
	sendOff [][]int32

	// upRecv/dnRecv are per-level bitmasks of peers this shard expects
	// a payload from (bit id = own outbox, checked separately).
	upRecv []uint64
	dnRecv []uint64
}

func buildSweepSched(t *vtree.VTree, pt *Partition) *sweepSched {
	n := t.N()
	H := t.Height()
	order := t.Order()
	P := pt.P
	sc := &sweepSched{H: H, sh: make([]*shardSweep, P)}

	// Counting pass: per (shard, level) traversal and apply entries,
	// per (shard, peer, level) top-down send entries.
	vertCnt := make([][]int32, P)
	applyCnt := make([][]int32, P)
	sendCnt := make([][][]int32, P)
	for k := 0; k < P; k++ {
		vertCnt[k] = make([]int32, H+1)
		applyCnt[k] = make([]int32, H+1)
		sendCnt[k] = make([][]int32, P)
	}
	for i := 1; i < n; i++ {
		v := order[i]
		l := t.Depth[v]
		k := pt.VertOwner(v)
		kp := pt.VertOwner(t.Parent[v])
		vertCnt[k][l]++
		applyCnt[kp][l]++
		if sendCnt[kp][k] == nil {
			sendCnt[kp][k] = make([]int32, H+1)
		}
		sendCnt[kp][k][l]++
	}

	// Allocation + offset tables.
	cur := make([]*shardSweep, P)
	vertPos := make([][]int32, P)
	applyPos := make([][]int32, P)
	sendPos := make([][][]int32, P)
	for k := 0; k < P; k++ {
		ss := &shardSweep{
			vertOff:  make([]int32, H+2),
			applyOff: make([]int32, H+2),
			send:     make([][]int32, P),
			sendOff:  make([][]int32, P),
			upRecv:   make([]uint64, H+1),
			dnRecv:   make([]uint64, H+1),
		}
		var vt, ap int32
		for l := 0; l <= H; l++ {
			ss.vertOff[l] = vt
			ss.applyOff[l] = ap
			vt += vertCnt[k][l]
			ap += applyCnt[k][l]
		}
		ss.vertOff[H+1] = vt
		ss.applyOff[H+1] = ap
		ss.verts = make([]int32, vt)
		ss.owner = make([]int8, vt)
		ss.applyParent = make([]int32, ap)
		ss.applySrc = make([]int8, ap)
		sendPos[k] = make([][]int32, P)
		for j := 0; j < P; j++ {
			cnt := sendCnt[k][j]
			if cnt == nil {
				continue
			}
			off := make([]int32, H+2)
			var tot int32
			for l := 0; l <= H; l++ {
				off[l] = tot
				tot += cnt[l]
			}
			off[H+1] = tot
			ss.sendOff[j] = off
			ss.send[j] = make([]int32, tot)
			sendPos[k][j] = append([]int32(nil), off[:H+1]...)
		}
		sc.sh[k] = ss
		cur[k] = ss
		vertPos[k] = append([]int32(nil), ss.vertOff[:H+1]...)
		applyPos[k] = append([]int32(nil), ss.applyOff[:H+1]...)
	}

	// Fill pass 1 (ascending position): traversal lists and top-down
	// send lists — both keyed to the receiver's ascending order.
	for i := 1; i < n; i++ {
		v := order[i]
		l := t.Depth[v]
		p := t.Parent[v]
		k := pt.VertOwner(v)
		kp := pt.VertOwner(p)
		ss := cur[k]
		pos := vertPos[k][l]
		ss.verts[pos] = int32(v)
		ss.owner[pos] = int8(kp)
		vertPos[k][l]++
		ss.dnRecv[l] |= 1 << uint(kp)
		sp := cur[kp]
		sp.send[k][sendPos[kp][k][l]] = int32(p)
		sendPos[kp][k][l]++
	}
	// Fill pass 2 (descending position): bottom-up apply lists in the
	// sequential sweep's per-parent addition order.
	for i := n - 1; i >= 1; i-- {
		v := order[i]
		l := t.Depth[v]
		p := t.Parent[v]
		k := pt.VertOwner(v)
		kp := pt.VertOwner(p)
		ss := cur[kp]
		pos := applyPos[kp][l]
		ss.applyParent[pos] = int32(p)
		ss.applySrc[pos] = int8(k)
		applyPos[kp][l]++
		ss.upRecv[l] |= 1 << uint(k)
	}
	return sc
}

// sweepUpLevel executes one bottom-up superstep at level lvl for every
// tree with accumulators acc (one per tree): traverse owned vertices at
// this depth routing each value to its parent's owner, ship, then apply
// received contributions in descending child position.
func (e *Engine) sweepUpLevel(s *shardState, lvl int, acc [][]float64) {
	for k, sc := range e.sched {
		if lvl > sc.H {
			continue
		}
		ss := sc.sh[s.id]
		lo, hi := ss.vertOff[lvl], ss.vertOff[lvl+1]
		a := acc[k]
		for i := hi - 1; i >= lo; i-- {
			d := ss.owner[i]
			s.outVals[d] = append(s.outVals[d], a[ss.verts[i]])
		}
	}
	for j := 0; j < e.P; j++ {
		if j != s.id && len(s.outVals[j]) > 0 {
			e.send(s, j)
		}
	}
	bufs := e.recvMasked(s, lvl, true)
	var base, ctr [64]int32
	for k, sc := range e.sched {
		if lvl > sc.H {
			continue
		}
		ss := sc.sh[s.id]
		lo, hi := ss.applyOff[lvl], ss.applyOff[lvl+1]
		a := acc[k]
		for i := lo; i < hi; i++ {
			src := ss.applySrc[i]
			a[ss.applyParent[i]] += bufs[src][base[src]+ctr[src]]
			ctr[src]++
		}
		for j := 0; j < e.P; j++ {
			base[j] += ctr[j]
			ctr[j] = 0
		}
	}
}

// sweepDnLevel executes one top-down superstep at level lvl: ship each
// peer the parent values its vertices at this depth need (in the
// peer's traversal order), then add the parent value into each owned
// vertex.
func (e *Engine) sweepDnLevel(s *shardState, lvl int, acc [][]float64) {
	for k, sc := range e.sched {
		if lvl > sc.H {
			continue
		}
		ss := sc.sh[s.id]
		a := acc[k]
		for j := 0; j < e.P; j++ {
			off := ss.sendOff[j]
			if off == nil {
				continue
			}
			for _, pv := range ss.send[j][off[lvl]:off[lvl+1]] {
				s.outVals[j] = append(s.outVals[j], a[pv])
			}
		}
	}
	for j := 0; j < e.P; j++ {
		if j != s.id && len(s.outVals[j]) > 0 {
			e.send(s, j)
		}
	}
	bufs := e.recvMasked(s, lvl, false)
	var base, ctr [64]int32
	for k, sc := range e.sched {
		if lvl > sc.H {
			continue
		}
		ss := sc.sh[s.id]
		lo, hi := ss.vertOff[lvl], ss.vertOff[lvl+1]
		a := acc[k]
		for i := lo; i < hi; i++ {
			src := ss.owner[i]
			a[ss.verts[i]] += bufs[src][base[src]+ctr[src]]
			ctr[src]++
		}
		for j := 0; j < e.P; j++ {
			base[j] += ctr[j]
			ctr[j] = 0
		}
	}
}

// recvMasked receives this superstep's expected payloads (union of the
// per-tree level masks) and returns the value buffers indexed by
// source shard; the shard's own outbox stands in for source id.
func (e *Engine) recvMasked(s *shardState, lvl int, up bool) [][]float64 {
	var mask uint64
	for _, sc := range e.sched {
		if lvl > sc.H {
			continue
		}
		ss := sc.sh[s.id]
		if up {
			mask |= ss.upRecv[lvl]
		} else {
			mask |= ss.dnRecv[lvl]
		}
	}
	bufs := s.recvBufs[:e.P]
	for j := 0; j < e.P; j++ {
		if j == s.id {
			bufs[j] = s.outVals[j]
		} else if mask&(1<<uint(j)) != 0 {
			bufs[j] = e.recv(s, j)
		} else {
			bufs[j] = nil
		}
	}
	return bufs
}

// sweepUp runs a full bottom-up sweep (levels maxH…1) over every tree
// with accumulators acc. A one-shard engine runs each tree's sequential
// sweep in place instead — the additions the level schedule reproduces —
// and charges the same maxH rounds.
func (e *Engine) sweepUp(c *Cost, acc [][]float64) {
	if e.P == 1 {
		for k, t := range e.trees {
			t.SubtreeSumsInto(acc[k], acc[k])
		}
		c.Rounds += int64(e.maxH)
		return
	}
	for lvl := e.maxH; lvl >= 1; lvl-- {
		e.round(c, func(s *shardState) { e.sweepUpLevel(s, lvl, acc) })
	}
}

// sweepDn runs a full top-down sweep (levels 1…maxH), sequentially per
// tree on a one-shard engine, as sweepUp does.
func (e *Engine) sweepDn(c *Cost, acc [][]float64) {
	if e.P == 1 {
		for k, t := range e.trees {
			t.RootPathSumsInto(acc[k], acc[k])
		}
		c.Rounds += int64(e.maxH)
		return
	}
	for lvl := 1; lvl <= e.maxH; lvl++ {
		e.round(c, func(s *shardState) { e.sweepDnLevel(s, lvl, acc) })
	}
}
