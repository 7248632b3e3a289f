package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"scalla/internal/client"
	"scalla/internal/workload"
)

// file is one placed file: its path, the hash its bytes are tagged
// with, the server holding it and its size.
type file struct {
	path string
	ph   uint64
	srv  int
	size int
}

// spec describes one workload. Every workload is a closed loop of two
// jobs, one per client; latency limits are fixed here and recorded in
// every result.
type spec struct {
	name string
	why  string
	// limit is the latency an op must meet to count toward goodput.
	limit time.Duration
	disk  bool
	proxy bool
	// place creates and places the workload's files; warm resolves
	// what a steady-state cluster would already know.
	place func(b *bench) error
	warm  func(b *bench) error
	// phase runs measured phase ph for d and returns what the jobs saw,
	// the elapsed time and how many never-seen paths they looked up.
	phase func(b *bench, ph int, d time.Duration, ab *abort) (perJob []jobStats, elapsed time.Duration, cold int)
	// finish runs the end-of-run checks.
	finish func(b *bench) error
}

var specs = []*spec{metaHot, coldResolve, streamRW, edgeReplay}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Sizes of the workloads' data sets.
const (
	hotFiles      = 10000
	smallRead     = 4 << 10
	coldCapRate   = 4000 // cold paths placed per second of a phase; far above what one opener opens
	streamFiles   = 16   // per direction
	streamSize    = 2 << 20
	chunk         = 64 << 10
	edgeFiles     = 256
	edgeSize      = 256 << 10
	edgeWarmOps   = 1500
	warmParallel  = 16
	zipfS         = 1.1
	writeSeedSalt = 0x5717e
)

// rngFor returns the generator for one purpose of one seed, so that
// adding a draw in one place does not shift another's sequence.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

// smallFiles names n small files under dir with seeded sizes in
// [lo, lo+span] and seeded servers.
func smallFiles(dir string, seed int64, n, lo, span int) []file {
	rng := rngFor(seed, 1)
	out := make([]file, n)
	for i := range out {
		p := fmt.Sprintf("/perfbench/%s/%d/f%06d", dir, seed, i)
		out[i] = file{path: p, ph: pathHash(p), srv: rng.Intn(servers), size: lo + 8*rng.Intn(span/8+1)}
	}
	return out
}

func (b *bench) placeAll(fs []file) error {
	buf := make([]byte, placeChunk)
	for _, f := range fs {
		if err := b.t.place(f.path, f.srv, b.cfg.seed, f.size, buf); err != nil {
			return err
		}
	}
	return nil
}

// forEachParallel runs fn over items from warmParallel goroutines,
// item i on client i%2, and returns the errors.
func forEachParallel(n int, fn func(i int, cl *client.Client) error, clients []*client.Client) error {
	var wg sync.WaitGroup
	errs := make([]error, warmParallel)
	for g := range warmParallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += warmParallel {
				if err := fn(i, clients[i%len(clients)]); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// locateAll resolves every file through the manager, which warms the
// manager's and the supervisors' location caches, and checks each
// answer against the placement.
func (b *bench) locateAll(fs []file) error {
	return forEachParallel(len(fs), func(i int, cl *client.Client) error {
		addr, err := b.warmLocate(cl, fs[i].path)
		if err != nil {
			return err
		}
		return b.checkRedirect(fs[i], addr)
	}, b.clients)
}

// warmLocate resolves a placed path during warm-up. Under the burst of
// first lookups a flood's answer can miss the fast window at a
// supervisor; the manager then waits out the full delay and caches the
// file as absent. The warm-up repairs that the way a client would, with
// one refreshing Locate, and counts it: the run metadata reports the
// count, and the measured phases get no such second chance.
func (b *bench) warmLocate(cl *client.Client, path string) (string, error) {
	addr, err := cl.Locate(path, false)
	if errors.Is(err, client.ErrNotExist) {
		b.warmRefreshes.Add(1)
		addr, err = cl.Relocate(path, false, "")
	}
	if err != nil {
		return "", fmt.Errorf("warm locate %s: %w", path, err)
	}
	return addr, nil
}

func (b *bench) checkRedirect(f file, addr string) error {
	if want := b.t.srvs[f.srv].DataAddr(); addr != want {
		return fmt.Errorf("%s resolved to %s, placed on %s", f.path, addr, want)
	}
	return nil
}

func (b *bench) checkOpen(f file, fh *client.File) error {
	if b.proxy == nil {
		if err := b.checkRedirect(f, fh.Server()); err != nil {
			return err
		}
	}
	if fh.Size() != int64(f.size) {
		return fmt.Errorf("%s opened with size %d, placed with %d", f.path, fh.Size(), f.size)
	}
	return nil
}

// opened records a successful open that started at t0, and its span
// when tracing.
func (b *bench) opened(st *jobStats, f file, t0, t1 time.Time) {
	st.open = append(st.open, t1.Sub(t0))
	if b.rec != nil {
		st.spans = append(st.spans, opSpan{key: f.ph, t0: int64(t0.Sub(b.rec.base)), t1: int64(t1.Sub(b.rec.base))})
	}
}

// done records a completed op of the given latency.
func (b *bench) done(st *jobStats, lat time.Duration) {
	st.opLat = append(st.opLat, lat)
	sec := st.now()
	sec.ops++
	if lat <= b.spec.limit {
		sec.good++
	}
}

// openRead opens f, checks where it opened and its size, reads and
// checks its first bytes, and closes it. A failed call counts as a
// failed op; a wrong answer aborts the phase.
func (b *bench) openRead(cl *client.Client, f file, st *jobStats, buf []byte, ab *abort) {
	st.attempted++
	t0 := time.Now()
	fh, err := cl.Open(f.path)
	if err != nil {
		st.failed++
		return
	}
	b.opened(st, f, t0, time.Now())
	if err := b.checkOpen(f, fh); err != nil {
		ab.fail(err)
		fh.Close()
		return
	}
	n := min(smallRead, f.size)
	r0 := time.Now()
	k, err := fh.ReadAt(buf[:n], 0)
	st.read = append(st.read, time.Since(r0))
	if err != nil && !(errors.Is(err, io.EOF) && k == n) {
		st.failed++
		fh.Close()
		return
	}
	if k != n {
		ab.fail(fmt.Errorf("short read of %s: %d of %d bytes", f.path, k, n))
	}
	if err := checkPattern(f.path, buf[:k], f.ph, b.cfg.seed, 0); err != nil {
		ab.fail(err)
	}
	st.addRead(k)
	if err := fh.Close(); err != nil {
		st.failed++
		return
	}
	b.done(st, time.Since(t0))
}

// stat stats f and checks the answer against the placement.
func (b *bench) stat(cl *client.Client, f file, st *jobStats, ab *abort) {
	st.attempted++
	t0 := time.Now()
	info, err := cl.Stat(f.path)
	if err != nil {
		st.failed++
		return
	}
	if !info.Exists || info.Size != int64(f.size) {
		ab.fail(fmt.Errorf("stat of %s: exists %v size %d, placed with %d bytes", f.path, info.Exists, info.Size, f.size))
	}
	b.done(st, time.Since(t0))
}

// ---------------------------------------------------------------- meta-hot

var metaHot = &spec{
	name:  "meta-hot",
	why:   "2 jobs, Zipf 1.1 over 10^4 warmed 4-8 KiB files, 80% open+4KiB read+close, 20% stat, limit 2 ms: cache hit at every tier, no floods",
	limit: 2 * time.Millisecond,
	place: func(b *bench) error {
		b.files = smallFiles("hot", b.cfg.seed, hotFiles, 4<<10, 4<<10)
		return b.placeAll(b.files)
	},
	warm: func(b *bench) error { return b.locateAll(b.files) },
	phase: func(b *bench, ph int, d time.Duration, ab *abort) ([]jobStats, time.Duration, int) {
		var next [jobs]func() op
		var bufs [jobs][]byte
		for j := range jobs {
			next[j], bufs[j] = hotOps(b.cfg.seed, ph, j), make([]byte, smallRead)
		}
		st, el := runClosedLoop(d, ab, func(j int, st *jobStats) bool {
			o := next[j]()
			if o.kind == opStat {
				b.stat(b.clients[j], b.files[o.file], st, ab)
			} else {
				b.openRead(b.clients[j], b.files[o.file], st, bufs[j], ab)
			}
			return true
		})
		return st, el, 0
	},
}

// hotOps is job j's operation sequence in phase ph of meta-hot.
func hotOps(seed int64, ph, j int) func() op {
	rng := rngFor(seed, int64(10+10*ph+j))
	z := workload.NewZipf(hotFiles, zipfS, seed*7919+int64(10*ph+j))
	return func() op {
		o := op{kind: opOpenRead, file: z.Next()}
		if rng.Float64() >= 0.8 {
			o.kind = opStat
		}
		return o
	}
}

// ---------------------------------------------------------------- cold-resolve

var coldResolve = &spec{
	name:  "cold-resolve",
	why:   "job 1 opens placed, never looked-up 0.5-1 KiB files one at a time; job 2 opens 1 in 4 of them at the same moment; open+read+close, limit 5 ms: floods, respq joins",
	limit: 5 * time.Millisecond,
	place: func(b *bench) error {
		// Every phase's paths exist from the start; every one is first
		// looked up inside its phase. The last files, one per server,
		// only warm the connections.
		phases := 1
		if b.cfg.trace {
			phases = 2
		}
		n := phases * b.coldPerPhase()
		b.files = smallFiles("cold", b.cfg.seed, n+servers, 512, 512)
		for i := range servers {
			b.files[n+i].srv = i
		}
		return b.placeAll(b.files)
	},
	warm: func(b *bench) error {
		// Each client opens one file on every server, so every
		// connection exists before the phase; the clients take turns,
		// since no first lookup belongs in the set-up.
		warm := b.files[len(b.files)-servers:]
		for _, cl := range b.clients {
			if err := forEachParallel(len(warm), func(i int, cl *client.Client) error {
				f := warm[i]
				fh, err := cl.Open(f.path)
				if err != nil {
					return fmt.Errorf("warm open %s: %w", f.path, err)
				}
				defer fh.Close()
				return b.checkOpen(f, fh)
			}, []*client.Client{cl}); err != nil {
				return err
			}
		}
		return nil
	},
	phase: func(b *bench, ph int, d time.Duration, ab *abort) ([]jobStats, time.Duration, int) {
		per := b.coldPerPhase()
		next := coldOps(b.cfg.seed, ph, per)
		bufs := [jobs][]byte{make([]byte, smallRead), make([]byte, smallRead)}
		// The opener hands a joined path to the joiner only when the
		// joiner is idle, so a joiner held up by a slow answer never
		// holds the opener up.
		joins := make(chan int)
		done := make(chan struct{})
		stop := time.AfterFunc(d, func() { close(done) })
		defer stop.Stop()
		var late lateOps
		st, el := runClosedLoop(d, ab, func(j int, st *jobStats) bool {
			if j == 1 {
				select {
				case i := <-joins:
					buf := bufs[1]
					if late.run(st, func(own *jobStats) { b.openRead(b.clients[1], b.files[i], own, buf, ab) }) {
						bufs[1] = make([]byte, smallRead) // the stalled op still reads into buf
					}
					return true
				case <-done:
					return false
				}
			}
			o := next()
			if o.file >= (ph+1)*per {
				ab.fail(fmt.Errorf("cold-resolve ran out of never-seen paths after %d", per))
				return false
			}
			b.coldSeen[ph] = append(b.coldSeen[ph], o.file)
			if o.join {
				select {
				case joins <- o.file:
				default:
				}
			}
			buf := bufs[0]
			if late.run(st, func(own *jobStats) { b.openRead(b.clients[0], b.files[o.file], own, buf, ab) }) {
				bufs[0] = make([]byte, smallRead)
			}
			return true
		})
		b.stalled += late.finish(&st[0])
		return st, el, len(b.coldSeen[ph])
	},
}

// stallAfter is how long a job waits for one cold op before it goes on
// without it. No correct first lookup takes that long; one that does
// has paid the full delay of a lost fast-window answer.
const stallAfter = time.Second

// lateOps lets a job go on while one of its ops is stalled. A stalled
// op runs to its end in the background, into its own stats, which are
// merged when the phase ends: it counts in the op and open timings with
// its whole latency and in the second it completed, so it moves the
// tail and the goodput of that second, not every later second of the
// job.
type lateOps struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	stats []*jobStats
}

// run runs op into fresh stats and merges them into st if it ends
// within stallAfter; otherwise it leaves the op running and reports
// that it stalled.
func (l *lateOps) run(st *jobStats, op func(own *jobStats)) (stalled bool) {
	own := &jobStats{start: st.start}
	done := make(chan struct{})
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		op(own)
		close(done)
	}()
	t := time.NewTimer(stallAfter)
	defer t.Stop()
	select {
	case <-done:
		st.merge(own)
		return false
	case <-t.C:
		l.mu.Lock()
		l.stats = append(l.stats, own)
		l.mu.Unlock()
		return true
	}
}

// finish waits for every stalled op, merges its stats into st and
// returns how many stalled.
func (l *lateOps) finish(st *jobStats) int {
	l.wg.Wait()
	for _, own := range l.stats {
		st.merge(own)
	}
	return len(l.stats)
}

// coldPerPhase is how many never-seen paths one phase may open.
func (b *bench) coldPerPhase() int {
	return int(b.cfg.seconds.Seconds() * coldCapRate)
}

// coldOps is the opener's operation sequence in phase ph of
// cold-resolve: each op opens the next never-seen path, and one in four
// is also opened by the joiner at the same moment, like two batch jobs
// starting on one file.
func coldOps(seed int64, ph, per int) func() op {
	rng := rngFor(seed, int64(20+10*ph))
	k := 0
	return func() op {
		o := op{kind: opOpenRead, file: ph*per + k, join: rng.Intn(4) == 0}
		k++
		return o
	}
}

// ---------------------------------------------------------------- stream-rw

var streamRW = &spec{
	name:  "stream-rw",
	why:   "1 sequential reader + 1 sequential overwriter of 2 MiB files in 64 KiB calls, disk stores with interval fsync, limit 20 ms per call: bulk data path",
	limit: 20 * time.Millisecond,
	disk:  true,
	place: func(b *bench) error {
		rng := rngFor(b.cfg.seed, 2)
		for i := range 2 * streamFiles {
			p := fmt.Sprintf("/perfbench/stream/%d/f%02d", b.cfg.seed, i)
			b.files = append(b.files, file{path: p, ph: pathHash(p), srv: rng.Intn(servers), size: streamSize})
		}
		b.written = make([]int64, streamFiles)
		if err := b.placeAll(b.files); err != nil {
			return err
		}
		// The placed bytes reach the disk now, so their writeback does
		// not land in the measured phase.
		for _, st := range b.t.stores {
			if err := st.Sync(); err != nil {
				return err
			}
		}
		return nil
	},
	warm: func(b *bench) error { return b.locateAll(b.files) },
	phase: func(b *bench, ph int, d time.Duration, ab *abort) ([]jobStats, time.Duration, int) {
		bufs := [jobs][]byte{make([]byte, chunk), make([]byte, chunk)}
		var next [jobs]int
		deadline := time.Now().Add(d)
		st, el := runClosedLoop(d, ab, func(j int, st *jobStats) bool {
			i := next[j] % streamFiles
			next[j]++
			if j == 0 {
				b.streamRead(b.files[i], st, bufs[0], ab)
			} else {
				b.streamWrite(i, st, bufs[1], deadline)
			}
			return true
		})
		return st, el, 0
	},
	finish: func(b *bench) error { return b.readBack() },
}

// streamRead reads f start to end in 64 KiB sequential reads, checking
// every byte. Each read is an op.
func (b *bench) streamRead(f file, st *jobStats, buf []byte, ab *abort) {
	cl := b.clients[0]
	t0 := time.Now()
	fh, err := cl.Open(f.path)
	if err != nil {
		st.attempted++
		st.failed++
		return
	}
	b.opened(st, f, t0, time.Now())
	defer fh.Close()
	if err := b.checkOpen(f, fh); err != nil {
		ab.fail(err)
		return
	}
	for off := int64(0); off < int64(f.size); {
		st.attempted++
		r0 := time.Now()
		n, err := fh.Read(buf)
		lat := time.Since(r0)
		if err != nil && !(errors.Is(err, io.EOF) && n > 0) {
			st.failed++
			return
		}
		st.read = append(st.read, lat)
		if err := checkPattern(f.path, buf[:n], f.ph, b.cfg.seed, off); err != nil {
			ab.fail(err)
			return
		}
		st.addRead(n)
		off += int64(n)
		b.done(st, lat)
	}
}

// streamWrite overwrites writer file i start to end in 64 KiB writes of
// the write pattern, stopping early at the deadline, and records how
// far it got for the read-back. Each write is an op.
func (b *bench) streamWrite(i int, st *jobStats, buf []byte, deadline time.Time) {
	f := b.files[streamFiles+i]
	cl := b.clients[1]
	t0 := time.Now()
	fh, err := cl.OpenWrite(f.path)
	if err != nil {
		st.attempted++
		st.failed++
		return
	}
	b.opened(st, f, t0, time.Now())
	defer fh.Close()
	wseed := b.cfg.seed ^ writeSeedSalt
	for off := int64(0); off < int64(f.size) && time.Now().Before(deadline); off += chunk {
		st.attempted++
		fillPattern(buf, f.ph, wseed, off)
		w0 := time.Now()
		n, err := fh.WriteAt(buf, off)
		lat := time.Since(w0)
		if err != nil || n != len(buf) {
			st.failed++
			return
		}
		st.bytesWritten += int64(n)
		b.written[i] = max(b.written[i], off+int64(n))
		b.done(st, lat)
	}
}

// readBack reads every writer file back: the prefix the writer reached
// holds the write pattern, the rest the placed one.
func (b *bench) readBack() error {
	cl := b.clients[0]
	wseed := b.cfg.seed ^ writeSeedSalt
	buf := make([]byte, chunk)
	for i := range streamFiles {
		f := b.files[streamFiles+i]
		if err := b.readBackFile(cl, f, b.written[i], wseed, buf); err != nil {
			return fmt.Errorf("read back: %w", err)
		}
	}
	return nil
}

func (b *bench) readBackFile(cl *client.Client, f file, written int64, wseed int64, buf []byte) error {
	fh, err := cl.Open(f.path)
	if err != nil {
		return fmt.Errorf("open %s: %w", f.path, err)
	}
	defer fh.Close()
	for off := int64(0); off < int64(f.size); off += chunk {
		n, err := fh.ReadAt(buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("%s at %d: %w", f.path, off, err)
		}
		if n != chunk {
			return fmt.Errorf("%s at %d: %d of %d bytes", f.path, off, n, chunk)
		}
		seed := b.cfg.seed
		if off < written {
			seed = wseed
		}
		if err := checkPattern(f.path, buf[:n], f.ph, seed, off); err != nil {
			return err
		}
	}
	return fh.Close()
}

// ---------------------------------------------------------------- edge-replay

var edgeReplay = &spec{
	name:  "edge-replay",
	why:   "2 jobs, Zipf 1.1 opens + whole-file 64 KiB reads of 256 x 256 KiB files through a proxy cache of 1/4 the data, limit 20 ms: pcache hits, evictions, fills",
	limit: 20 * time.Millisecond,
	proxy: true,
	place: func(b *bench) error {
		rng := rngFor(b.cfg.seed, 3)
		for i := range edgeFiles {
			p := fmt.Sprintf("/perfbench/edge/%d/f%03d", b.cfg.seed, i)
			b.files = append(b.files, file{path: p, ph: pathHash(p), srv: rng.Intn(servers), size: edgeSize})
		}
		return b.placeAll(b.files)
	},
	warm: func(b *bench) error {
		// Resolve every file at the origin through the proxy, then run
		// a fixed number of ops so the proxy's cache is at its steady
		// state before anything is timed.
		if err := forEachParallel(len(b.files), func(i int, cl *client.Client) error {
			_, err := b.warmLocate(cl, b.files[i].path)
			return err
		}, b.clients); err != nil {
			return err
		}
		ab := &abort{}
		buf := make([]byte, chunk)
		for j := range jobs {
			z := workload.NewZipf(edgeFiles, zipfS, b.cfg.seed*31+int64(j))
			for range edgeWarmOps / jobs {
				var st jobStats
				b.edgeOp(b.clients[j], b.files[z.Next()], &st, buf, ab)
				if st.failed > 0 {
					return errors.New("edge warm-up op failed")
				}
			}
		}
		return ab.err
	},
	phase: func(b *bench, ph int, d time.Duration, ab *abort) ([]jobStats, time.Duration, int) {
		var zs [jobs]*workload.Zipf
		var bufs [jobs][]byte
		for j := range jobs {
			zs[j] = workload.NewZipf(edgeFiles, zipfS, b.cfg.seed*131+int64(10*ph+j))
			bufs[j] = make([]byte, chunk)
		}
		st, el := runClosedLoop(d, ab, func(j int, st *jobStats) bool {
			b.edgeOp(b.clients[j], b.files[zs[j].Next()], st, bufs[j], ab)
			return true
		})
		return st, el, 0
	},
}

// edgeOp opens f through the proxy, reads it whole in 64 KiB reads,
// checking every byte, and closes it.
func (b *bench) edgeOp(cl *client.Client, f file, st *jobStats, buf []byte, ab *abort) {
	st.attempted++
	t0 := time.Now()
	fh, err := cl.Open(f.path)
	if err != nil {
		st.failed++
		return
	}
	b.opened(st, f, t0, time.Now())
	if err := b.checkOpen(f, fh); err != nil {
		ab.fail(err)
		fh.Close()
		return
	}
	for off := int64(0); off < int64(f.size); {
		r0 := time.Now()
		n, err := fh.Read(buf)
		st.read = append(st.read, time.Since(r0))
		if err != nil && !(errors.Is(err, io.EOF) && n > 0) {
			st.failed++
			fh.Close()
			return
		}
		if err := checkPattern(f.path, buf[:n], f.ph, b.cfg.seed, off); err != nil {
			ab.fail(err)
			fh.Close()
			return
		}
		st.addRead(n)
		off += int64(n)
	}
	if err := fh.Close(); err != nil {
		st.failed++
		return
	}
	b.done(st, time.Since(t0))
}
