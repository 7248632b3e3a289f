package main

import (
	"fmt"
	"sort"
	"time"

	"scalla/internal/proto"
)

// hop is one request/reply exchange seen from the dialing side: the
// request left at ts and its reply arrived at tr. res is the daemon's
// residence for the same request (receipt to reply send), or -1 when
// no unique residence matched.
type hop struct {
	ep     uint16
	kind   uint8
	client bool
	fp     uint64
	key    uint64
	ts, tr int64
	res    int64
}

// residence is one request seen from the accepting side: received at
// tq, replied to at tp.
type residence struct {
	ep     uint16
	kind   uint8
	fp     uint64
	tq, tp int64
}

// opSpan is one timed client operation of the traced run: the path
// hash of its file and its start and end on the recorder clock.
type opSpan struct {
	key    uint64
	t0, t1 int64
}

type pendKey struct{ conn, sid uint32 }

// pairEvents turns the frame log into hops and residences by matching
// each request with the reply on the same connection and stream.
func pairEvents(evs []event) ([]hop, []residence) {
	sorted := append([]event(nil), evs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].t < sorted[j].t })
	pending := make(map[pendKey]event)
	var hops []hop
	var res []residence
	for _, ev := range sorted {
		k := pendKey{ev.conn, ev.sid}
		accepted := ev.flags&evAccepted != 0
		request := (ev.flags&evSend != 0) != accepted
		if request {
			pending[k] = ev
			continue
		}
		req, ok := pending[k]
		if !ok {
			continue
		}
		delete(pending, k)
		if accepted {
			res = append(res, residence{ep: req.ep, kind: req.kind, fp: req.fp, tq: req.t, tp: ev.t})
		} else {
			hops = append(hops, hop{ep: req.ep, kind: req.kind, client: req.flags&evClient != 0,
				fp: req.fp, key: req.key, ts: req.t, tr: ev.t, res: -1})
		}
	}
	return hops, res
}

type resKey struct {
	ep uint16
	fp uint64
}

// matchResidences sets each hop's residence to that of the one request
// with the same endpoint and fingerprint received inside the hop.
func matchResidences(hops []hop, res []residence) {
	byKey := make(map[resKey][]int)
	for i, r := range res {
		k := resKey{r.ep, r.fp}
		byKey[k] = append(byKey[k], i)
	}
	for i := range hops {
		h := &hops[i]
		match := -1
		for _, j := range byKey[resKey{h.ep, h.fp}] {
			r := res[j]
			if r.tq >= h.ts && r.tp <= h.tr {
				if match >= 0 {
					match = -2 // ambiguous
					break
				}
				match = j
			}
		}
		if match >= 0 {
			h.res = res[match].tp - res[match].tq
		}
	}
}

// traceBudget is the per-layer breakdown the traced run yields.
type traceBudget struct {
	self       samples            // per open: time not covered by any hop
	hopsPerOp  []int              // per open: hops attributed
	wire       samples            // per client hop: round trip minus residence
	hopRTT     map[string]samples // per tier: round trip of the opens' hops
	residence  map[string]samples // per tier and request kind ("server/Open")
	opsMatched int
	ambiguous  int // opens skipped: another open of the same file overlapped
}

// analyze attributes client hops to the traced opens: a hop belongs to
// an open when it carries the open's path and lies inside its span.
// Opens overlapping another open of the same path cannot be told apart
// and are skipped.
func analyze(hops []hop, res []residence, ops []opSpan, roles map[uint16]string) traceBudget {
	matchResidences(hops, res)
	b := traceBudget{hopRTT: map[string]samples{}, residence: map[string]samples{}}
	for _, r := range res {
		role := roles[r.ep]
		name := role + "/" + kindName(r.kind)
		b.residence[name] = append(b.residence[name], time.Duration(r.tp-r.tq))
		b.residence[role] = append(b.residence[role], time.Duration(r.tp-r.tq))
	}
	byKey := make(map[uint64][]int)
	for i, h := range hops {
		if !h.client {
			continue
		}
		if h.res >= 0 {
			b.wire = append(b.wire, time.Duration(h.tr-h.ts-h.res))
		}
		if proto.Kind(h.kind) == proto.KOpen {
			byKey[h.key] = append(byKey[h.key], i)
		}
	}
	opsByKey := make(map[uint64][]opSpan)
	for _, op := range ops {
		opsByKey[op.key] = append(opsByKey[op.key], op)
	}
	for key, list := range opsByKey {
		sort.Slice(list, func(i, j int) bool { return list[i].t0 < list[j].t0 })
		for i, op := range list {
			if (i > 0 && list[i-1].t1 > op.t0) || (i+1 < len(list) && list[i+1].t0 < op.t1) {
				b.ambiguous++
				continue
			}
			var covered, lastEnd int64
			n := 0
			for _, hi := range byKey[key] {
				h := hops[hi]
				if h.ts < op.t0 || h.tr > op.t1 {
					continue
				}
				n++
				b.hopRTT[roles[h.ep]] = append(b.hopRTT[roles[h.ep]], time.Duration(h.tr-h.ts))
				// Hops of one walk are sequential; the max guards the
				// union against any overlap.
				start := max(h.ts, lastEnd)
				if h.tr > start {
					covered += h.tr - start
					lastEnd = h.tr
				}
			}
			b.self = append(b.self, time.Duration(op.t1-op.t0-covered))
			b.hopsPerOp = append(b.hopsPerOp, n)
			b.opsMatched++
		}
	}
	return b
}

// kindName names the request kinds the breakdown reports on.
func kindName(k uint8) string {
	switch proto.Kind(k) {
	case proto.KOpen:
		return "Open"
	case proto.KRead:
		return "Read"
	case proto.KWrite:
		return "Write"
	case proto.KStat:
		return "Stat"
	case proto.KClose:
		return "Close"
	case proto.KLocate:
		return "Locate"
	}
	return fmt.Sprintf("kind%d", k)
}
