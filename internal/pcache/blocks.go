package pcache

// The data half of the proxy cache: block-granular file caching with
// LRU capacity eviction plus the Section III-A lifetime windows, and
// the location half: origin data servers mapped onto internal/cache
// server slots so location answers ride the same striped table,
// eviction windows, and Figure-3 epoch machinery the origin cmsd uses.
//
// Ownership rules (DESIGN.md §9.3): a fill does not copy. The origin's
// Data reply arrives in a pooled receive frame and the block adopts it:
// block.data aliases the frame's payload and block.frame owns it. The
// frame goes back to the pool exactly once, when dropBlockLocked
// removes the block (LRU eviction, window expiry, entry drop), or at
// once when the reply is not inserted (a duplicate, a dead entry, a
// non-Data verdict). Hits copy out of block.data into a pooled frame
// only under bmu, and every drop runs under bmu too, so once a block
// is dropped no reader can still see the recycled bytes.

import (
	"scalla/internal/bitvec"
	"scalla/internal/cache"
	"scalla/internal/mux"
	"scalla/internal/names"
	"scalla/internal/proto"
)

// entry is the cached state for one file: its origin binding (server
// address, location slot, origin session and handle) and the resident
// blocks. Entries are immutable once built except for the block map
// and the dead flag; invalidation drops the whole entry and the next
// access rebuilds one.
type entry struct {
	path   string
	size   int64
	addr   string // origin data server holding the file
	slot   int    // location-cache slot of addr
	sepoch uint64 // slotEpoch stamp at bind time
	mc     *mux.Conn
	fh     uint64 // origin file handle, valid only while mc lives

	dead    bool // under Proxy.bmu; entry removed, blocks dropped
	blocks  map[int64]*block
	pending map[int64]chan struct{} // in-flight fills, under Proxy.bmu
}

// block is one cached span of a file. Blocks sit on three structures
// at once: the owning entry's index map, the proxy-wide LRU list
// (capacity eviction), and one of the 64 lifetime windows (age
// eviction, the hide-then-sweep of Section III-A at block granularity).
type block struct {
	ent   *entry
	idx   int64
	data  []byte       // the payload, aliasing frame
	frame *proto.Frame // origin reply frame; released by dropBlockLocked
	ta    uint64       // window tick at insertion

	prev, next *block // intrusive LRU links
	wnext      *block // window chain
	gone       bool   // dropped; window sweep discards the node lazily
}

// stale reports whether the entry's origin binding has been passed by
// an invalidation epoch. Called with or without bmu held; sepoch and
// slot are immutable and the epoch is atomic.
func (e *entry) stale(p *Proxy) bool {
	return p.slotEpoch[e.slot].Load() != e.sepoch
}

// ----------------------------------------------------------- hit path

// readFrame serves a Read from resident blocks into a pooled frame: a
// map probe, a memcpy under the cache lock, and an LRU splice — no
// allocation once the frame pool is warm. It reports false when h is
// not bound to a live entry or the block is absent; the caller fills
// and retries. Reads crossing a block boundary return the in-block
// prefix (short reads are legal downstream).
func (p *Proxy) readFrame(h *phandle, m proto.Read, stream uint32) (*proto.Frame, int, bool) {
	p.bmu.Lock()
	ent := h.ent
	if ent == nil || ent.dead || ent.stale(p) {
		p.bmu.Unlock()
		return nil, 0, false
	}
	if m.Off >= ent.size {
		p.bmu.Unlock()
		f, _ := proto.StartDataFrame(stream, m.FH, 0)
		f.FinishData(0, true)
		return f, 0, true
	}
	bs := int64(p.cfg.BlockSize)
	bi := m.Off / bs
	b := ent.blocks[bi]
	if b == nil {
		p.bmu.Unlock()
		return nil, 0, false
	}
	bo := int(m.Off - bi*bs)
	if bo >= len(b.data) {
		// A truncated-short block (origin returned less than a full
		// block before EOF); nothing at this offset.
		p.bmu.Unlock()
		return nil, 0, false
	}
	n := int(m.N)
	if avail := len(b.data) - bo; n > avail {
		n = avail
	}
	f, dst := proto.StartDataFrame(stream, m.FH, n)
	copy(dst, b.data[bo:bo+n])
	p.lruTouch(b)
	eof := m.Off+int64(n) >= ent.size
	p.bmu.Unlock()
	f.FinishData(n, eof)
	return f, n, true
}

// ---------------------------------------------------------- miss path

// fill makes the block containing m.Off resident: it re-resolves the
// entry if the binding went stale, fetches the block from origin, and
// kicks the readahead window. A nil return means "retry the cache"; a
// non-nil message is the downstream reply (error or staging wait).
func (p *Proxy) fill(h *phandle, m proto.Read) proto.Message {
	p.bmu.Lock()
	ent := h.ent
	p.bmu.Unlock()
	if ent == nil || p.entryDead(ent) {
		newEnt, msg := p.resolveEntry(h.path)
		if msg != nil {
			return msg
		}
		p.bmu.Lock()
		h.ent = newEnt
		p.bmu.Unlock()
		ent = newEnt
	}
	if m.Off >= ent.size {
		return nil // EOF; the cache path serves the empty frame
	}
	bi := m.Off / int64(p.cfg.BlockSize)
	if msg := p.fetchBlock(ent, bi); msg != nil {
		return msg
	}
	p.prefetch(ent, bi+1)
	return nil
}

func (p *Proxy) entryDead(ent *entry) bool {
	p.bmu.Lock()
	dead := ent.dead
	p.bmu.Unlock()
	return dead || ent.stale(p)
}

// fetchBlock pulls one block from the entry's origin session and
// inserts it. Transport failures, origin ENoEnt and any verdict on an
// entry invalidated meanwhile invalidate the entry and return nil so
// the caller's retry re-resolves (possibly at another replica, via the
// refresh protocol); other origin verdicts pass through downstream.
func (p *Proxy) fetchBlock(ent *entry, bi int64) proto.Message {
	ch, claimed := p.claimFill(ent, bi)
	if !claimed {
		if ch != nil {
			// A readahead fill for this block is already in flight;
			// ride it instead of issuing a duplicate origin read.
			<-ch
		}
		return nil
	}
	defer p.finishFill(ent, bi, ch)
	sp := p.cfg.Tracer.Start("pcache.fill", ent.path)
	var reply proto.Message
	var frame *proto.Frame
	ca, err := p.startRead(ent, bi)
	if err == nil {
		reply, frame, err = ca.WaitFrame(p.cfg.RPCTimeout)
	}
	if err != nil {
		if sp != nil {
			sp.End("origin severed: " + err.Error())
		}
		p.invalidateEntry(ent)
		return nil
	}
	if v, ok := reply.(proto.Data); ok {
		p.st.originBytes.Add(int64(len(v.Bytes)))
		p.insertBlock(ent, bi, v.Bytes, frame)
		sp.End("filled")
		return nil
	}
	frame.Release() // no other verdict aliases the frame
	switch v := reply.(type) {
	case proto.Err:
		// An entry invalidated while the read was in flight has had its
		// origin handle closed under it: the verdict is about that
		// handle, not the file, so the caller's retry re-resolves.
		superseded := p.entryDead(ent)
		p.invalidateEntry(ent)
		if superseded {
			sp.End("binding invalidated")
			return nil
		}
		if v.Code == proto.ENoEnt {
			sp.End("origin lost file")
			return nil // retry re-resolves through a refresh walk
		}
		sp.End("origin error")
		return v
	case proto.Wait:
		sp.End("origin staging")
		return v
	default:
		sp.End("bad reply")
		return proto.Err{Code: proto.EIO, Msg: "pcache: unexpected origin read reply"}
	}
}

// startRead sends the origin Read for block bi; the caller finishes
// the call with WaitFrame and owns the reply frame.
func (p *Proxy) startRead(ent *entry, bi int64) (*mux.Call, error) {
	bs := p.cfg.BlockSize
	return ent.mc.Start(proto.Read{FH: ent.fh, Off: bi * int64(bs), N: uint32(bs)})
}

// prefetch pipelines the next blocks of the readahead window from
// origin in the background, skipping ones already resident. Misses on
// a sequential scan therefore pay one round trip per window, not per
// block — the same economics as the client's own readahead, applied
// origin-side.
func (p *Proxy) prefetch(ent *entry, from int64) {
	want := p.cfg.OriginReadahead - 1
	if want <= 0 {
		return
	}
	bs := int64(p.cfg.BlockSize)
	var need []int64
	var chans []chan struct{}
	p.bmu.Lock()
	for bi := from; bi < from+int64(want); bi++ {
		if bi*bs >= ent.size {
			break
		}
		if ent.dead || ent.blocks[bi] != nil || ent.pending[bi] != nil {
			continue
		}
		if ent.pending == nil {
			ent.pending = make(map[int64]chan struct{})
		}
		ch := make(chan struct{})
		ent.pending[bi] = ch
		need = append(need, bi)
		chans = append(chans, ch)
	}
	p.bmu.Unlock()
	if len(need) == 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		calls := make([]*mux.Call, len(need))
		for i, bi := range need {
			ca, err := p.startRead(ent, bi)
			if err != nil {
				break
			}
			calls[i] = ca
		}
		for i, ca := range calls {
			if ca != nil {
				if reply, frame, err := ca.WaitFrame(p.cfg.RPCTimeout); err == nil {
					if d, ok := reply.(proto.Data); ok {
						p.st.originBytes.Add(int64(len(d.Bytes)))
						p.insertBlock(ent, need[i], d.Bytes, frame)
					} else {
						frame.Release()
					}
				}
			}
			p.finishFill(ent, need[i], chans[i])
		}
	}()
}

// claimFill registers an in-flight fill for (ent, bi). claimed=true
// means the caller owns the fetch and must call finishFill when done;
// claimed=false with a non-nil channel means another fill is already
// in flight (wait on it); nil, false means the block is resident or
// the entry is dead — nothing to fetch.
func (p *Proxy) claimFill(ent *entry, bi int64) (chan struct{}, bool) {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	if ent.dead || ent.blocks[bi] != nil {
		return nil, false
	}
	if ch := ent.pending[bi]; ch != nil {
		return ch, false
	}
	if ent.pending == nil {
		ent.pending = make(map[int64]chan struct{})
	}
	ch := make(chan struct{})
	ent.pending[bi] = ch
	return ch, true
}

// finishFill retires an in-flight fill claim and wakes any waiters.
// The insert (if the fetch succeeded) happens before this, so waiters
// retry the cache and hit.
func (p *Proxy) finishFill(ent *entry, bi int64, ch chan struct{}) {
	p.bmu.Lock()
	if ent.pending[bi] == ch {
		delete(ent.pending, bi)
	}
	p.bmu.Unlock()
	close(ch)
}

// ------------------------------------------------- block bookkeeping

// insertBlock makes data resident for (ent, bi), adopting frame, the
// pooled reply frame data aliases. It charges capacity with the frame
// buffer the block pins and evicts from the LRU tail until the cache
// fits. Duplicate inserts (a racing prefetch) and inserts into dead
// entries release the frame and insert nothing.
func (p *Proxy) insertBlock(ent *entry, bi int64, data []byte, frame *proto.Frame) {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	if ent.dead || ent.blocks[bi] != nil {
		frame.Release()
		return
	}
	b := &block{ent: ent, idx: bi, data: data, frame: frame, ta: p.tw}
	ent.blocks[bi] = b
	p.lruPushFront(b)
	w := p.tw % uint64(len(p.windows))
	b.wnext = p.windows[w]
	p.windows[w] = b
	p.blockBytes += b.pinned()
	p.nblocks++
	for p.blockBytes > p.cfg.CacheBytes && p.lruBack != nil && p.lruBack != b {
		victim := p.lruBack
		p.dropBlockLocked(victim)
		p.st.evictedLRU.Add(1)
	}
}

// pinned is the memory a resident block holds: the capacity of the
// frame buffer it adopted, which a short last block does not shrink.
func (b *block) pinned() int64 { return int64(cap(b.frame.Bytes())) }

// dropBlockLocked removes a block from its entry and the LRU list and
// returns its frame to the pool — the one release of a resident
// block's frame, guarded by gone; the window chain discards the husk
// at its next sweep. Caller holds bmu, which is what makes the release
// safe: the hit path reads block.data only under bmu.
func (p *Proxy) dropBlockLocked(b *block) {
	if b.gone {
		return
	}
	b.gone = true
	p.lruUnlink(b)
	if b.ent.blocks != nil {
		delete(b.ent.blocks, b.idx)
	}
	p.blockBytes -= b.pinned()
	p.nblocks--
	b.frame.Release()
	b.data, b.frame = nil, nil
}

// tickBlocks advances the block cache's window clock one step and
// sweeps the window that comes due: any block inserted a full lifetime
// (64 windows) ago is dropped; husks of already-dropped blocks are
// discarded. This is the hide-then-sweep of Section III-A with drop
// taking the place of hide, since blocks have no refresh semantics.
func (p *Proxy) tickBlocks() {
	p.bmu.Lock()
	p.tw++
	w := p.tw % uint64(len(p.windows))
	var live *block
	for b := p.windows[w]; b != nil; {
		next := b.wnext
		switch {
		case b.gone:
			// already dropped; discard the husk
		case b.ta != p.tw:
			p.dropBlockLocked(b)
			p.st.expiredWindow.Add(1)
		default:
			b.wnext = live
			live = b
		}
		b = next
	}
	p.windows[w] = live
	p.bmu.Unlock()
}

// lruPushFront, lruUnlink, lruTouch maintain the intrusive
// most-recently-used list; all run under bmu and allocate nothing.
func (p *Proxy) lruPushFront(b *block) {
	b.prev = nil
	b.next = p.lruFront
	if p.lruFront != nil {
		p.lruFront.prev = b
	}
	p.lruFront = b
	if p.lruBack == nil {
		p.lruBack = b
	}
}

func (p *Proxy) lruUnlink(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else if p.lruFront == b {
		p.lruFront = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else if p.lruBack == b {
		p.lruBack = b.prev
	}
	b.prev, b.next = nil, nil
}

func (p *Proxy) lruTouch(b *block) {
	if p.lruFront == b {
		return
	}
	p.lruUnlink(b)
	p.lruPushFront(b)
}

// --------------------------------------------------------- resolution

// liveEntry returns the path's cached entry if it is alive and its
// origin binding has not been invalidated.
func (p *Proxy) liveEntry(path string) *entry {
	p.bmu.Lock()
	ent := p.entries[path]
	if ent != nil && (ent.dead || ent.stale(p)) {
		ent = nil
	}
	p.bmu.Unlock()
	return ent
}

// resolveEntry builds (or returns) a live entry for path: resolve a
// location (edge cache first, origin walk on miss), open the file at
// the origin data server, and register the binding. A failed open
// evicts the location bit and retries once through the refresh
// protocol — Locate{Refresh, Avoid: failed} upstream — so a stale
// answer self-corrects in one extra walk instead of a miss-storm.
func (p *Proxy) resolveEntry(path string) (*entry, proto.Message) {
	if ent := p.liveEntry(path); ent != nil {
		return ent, nil
	}
	avoid := ""
	for attempt := 0; attempt < 2; attempt++ {
		addr, slot, msg := p.resolveLocation(path, attempt > 0, avoid)
		if msg != nil {
			return nil, msg
		}
		ent, msg, retry := p.openOrigin(path, addr, slot)
		if ent != nil {
			return ent, nil
		}
		if !retry {
			return nil, msg
		}
		avoid = addr
	}
	return nil, proto.Err{Code: proto.ENoEnt, Msg: "pcache: no origin replica would serve " + path}
}

// resolveLocation answers "which origin data server holds path": from
// the edge location cache when possible, otherwise by walking the
// origin managers. refresh forces the walk with the Section III-C1
// Refresh/Avoid verdicts so the origin re-resolves too.
func (p *Proxy) resolveLocation(path string, refresh bool, avoid string) (string, int, proto.Message) {
	if !refresh {
		if _, view, ok := p.loc.Fetch(path, p.slotMask(), 0); ok {
			if addr, slot, found := p.addrFromView(view); found {
				p.st.locHits.Add(1)
				return addr, slot, nil
			}
		}
	}
	p.st.locMisses.Add(1)
	p.st.originLocates.Add(1)
	var addr string
	var err error
	if refresh {
		addr, err = p.up.Relocate(path, false, avoid)
	} else {
		addr, err = p.up.Locate(path, false)
	}
	if err != nil {
		return "", 0, errReply(err)
	}
	slot := p.slotFor(addr)
	p.loc.Add(path, p.slotMask(), 0)
	p.loc.Update(path, names.Hash(path), slot, false, true)
	return addr, slot, nil
}

// openOrigin opens path at one origin data server over the shared
// pooled connection. retry=true verdicts mean "the location was
// stale": the caller evicts and refreshes. The origin handle's
// lifetime is tied to the pooled connection (the xrd server drops
// handles when their connection dies), so the entry remembers which
// Conn it opened on and goes stale with it.
func (p *Proxy) openOrigin(path, addr string, slot int) (*entry, proto.Message, bool) {
	sepoch := p.slotEpoch[slot].Load()
	mc, err := p.pool.Get(addr)
	if err != nil {
		p.evictLoc(path, slot)
		return nil, errReply(err), true
	}
	reply, err := mc.Call(proto.Open{Path: path}, p.cfg.RPCTimeout)
	if err != nil {
		p.pool.Drop(addr, mc)
		p.evictLoc(path, slot)
		return nil, proto.Err{Code: proto.EIO, Msg: "pcache: origin open: " + err.Error()}, true
	}
	switch v := reply.(type) {
	case proto.OpenOK:
		p.st.originOpens.Add(1)
		ent := &entry{
			path: path, size: v.Size, addr: addr, slot: slot,
			sepoch: sepoch, mc: mc, fh: v.FH,
			blocks: make(map[int64]*block),
		}
		p.bmu.Lock()
		if existing := p.entries[path]; existing != nil && !existing.dead && !existing.stale(p) {
			// Another open raced us here; keep theirs, close ours.
			p.bmu.Unlock()
			go func() { mc.Call(proto.Close{FH: v.FH}, p.cfg.RPCTimeout) }()
			return existing, nil, false
		} else if existing != nil {
			p.dropEntryLocked(existing)
		}
		p.entries[path] = ent
		p.bmu.Unlock()
		return ent, nil, false
	case proto.Err:
		p.evictLoc(path, slot)
		if v.Code == proto.ENoEnt {
			return nil, v, true // stale redirect: refresh and retry
		}
		return nil, v, false
	case proto.Wait:
		return nil, v, false // staging; downstream client waits and retries
	default:
		return nil, proto.Err{Code: proto.EIO, Msg: "pcache: unexpected origin open reply"}, false
	}
}

// ------------------------------------------------------- invalidation

// invalidatePath drops any cached entry and location bits for path, so
// the next access re-resolves from origin. Used for write-through
// opens, writes, truncates, unlinks, and downstream refresh requests.
func (p *Proxy) invalidatePath(path string) {
	p.bmu.Lock()
	ent := p.entries[path]
	if ent != nil {
		p.dropEntryLocked(ent)
	}
	p.bmu.Unlock()
	if ent != nil {
		p.evictLoc(path, ent.slot)
		p.closeOriginHandle(ent)
	}
}

// invalidateEntry drops one entry after an origin-side failure; the
// location bit for its server is evicted so the next resolution walks
// (or refreshes) instead of bouncing off the same stale answer.
func (p *Proxy) invalidateEntry(ent *entry) {
	p.bmu.Lock()
	dropped := !ent.dead
	if dropped {
		p.dropEntryLocked(ent)
	}
	p.bmu.Unlock()
	if dropped {
		p.evictLoc(ent.path, ent.slot)
		p.closeOriginHandle(ent)
	}
}

// dropEntryLocked marks ent dead and releases its blocks. Caller
// holds bmu.
func (p *Proxy) dropEntryLocked(ent *entry) {
	if ent.dead {
		return
	}
	ent.dead = true
	if p.entries[ent.path] == ent {
		delete(p.entries, ent.path)
	}
	for _, b := range ent.blocks {
		p.dropBlockLocked(b)
	}
	ent.blocks = nil
	p.st.invalidated.Add(1)
}

// closeOriginHandle returns the entry's origin file handle best-effort
// so a long-lived pooled connection does not accumulate handles.
func (p *Proxy) closeOriginHandle(ent *entry) {
	mc, fh := ent.mc, ent.fh
	if mc == nil || mc.Err() != nil {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		mc.Call(proto.Close{FH: fh}, p.cfg.RPCTimeout)
	}()
}

// InvalidateOrigin advances the eviction epoch for one origin data
// server: every entry bound to it goes stale immediately (the hit path
// compares epochs before serving a single byte) and its location bits
// are condemned through the cache's ServerDropped — the Figure-3
// correction clears them on the next fetch. Call it when an origin
// server is known dead or its content must be recached.
func (p *Proxy) InvalidateOrigin(addr string) {
	p.smu.Lock()
	slot, ok := p.slotOf[addr]
	p.smu.Unlock()
	if !ok {
		return
	}
	p.slotEpoch[slot].Add(1)
	p.loc.ServerDropped(slot)
	// Proactively reclaim; correctness does not depend on this sweep —
	// the epoch stamp already fences every stale entry.
	p.bmu.Lock()
	var stale []*entry
	for _, ent := range p.entries {
		if ent.slot == slot {
			stale = append(stale, ent)
			p.dropEntryLocked(ent)
		}
	}
	p.bmu.Unlock()
	for _, ent := range stale {
		p.closeOriginHandle(ent)
	}
}

// --------------------------------------------------------- slot table

// slotFor maps an origin data-server address to a location-cache slot,
// assigning one on first sight. Past 64 distinct servers, slots are
// recycled round-robin with a ServerDropped epoch bump so stale bits
// from the previous owner cannot leak locations.
func (p *Proxy) slotFor(addr string) int {
	p.smu.Lock()
	if s, ok := p.slotOf[addr]; ok {
		p.smu.Unlock()
		return s
	}
	var s int
	if len(p.slotOf) < bitvec.Width {
		s = len(p.slotOf)
	} else {
		s = p.nextRR % bitvec.Width
		p.nextRR++
		delete(p.slotOf, p.addrOf[s])
		p.slotEpoch[s].Add(1)
	}
	p.slotOf[addr] = s
	p.addrOf[s] = addr
	p.mask = p.mask.With(s)
	recycled := len(p.slotOf) == bitvec.Width && p.nextRR > 0
	p.smu.Unlock()
	if recycled {
		p.loc.ServerDropped(s)
	}
	p.loc.ServerConnected(s)
	return s
}

func (p *Proxy) slotMask() bitvec.Vec {
	p.smu.Lock()
	m := p.mask
	p.smu.Unlock()
	return m
}

// addrFromView picks the first location bit that maps to a known
// origin server.
func (p *Proxy) addrFromView(v cache.View) (string, int, bool) {
	p.smu.Lock()
	defer p.smu.Unlock()
	found := -1
	v.Vh.ForEach(func(i int) bool {
		if p.addrOf[i] != "" {
			found = i
			return false
		}
		return true
	})
	if found < 0 {
		return "", 0, false
	}
	return p.addrOf[found], found, true
}

// evictLoc clears one server bit from path's location entry, so the
// next fetch stops naming a replica that failed us.
func (p *Proxy) evictLoc(path string, slot int) {
	if ref, _, ok := p.loc.Fetch(path, p.slotMask(), 0); ok {
		p.loc.Evict(ref, slot)
	}
}
