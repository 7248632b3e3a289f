package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"scalla/internal/cmsd"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
	"scalla/internal/workload"
)

func draw(next func() op, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestSeedFixesTheOperationSequence(t *testing.T) {
	for name, gen := range map[string]func(seed int64) func() op{
		"meta-hot":     func(seed int64) func() op { return hotOps(seed, 0, 1) },
		"cold-resolve": func(seed int64) func() op { return coldOps(seed, 1, 1000) },
	} {
		a, b, c := draw(gen(7), 2000), draw(gen(7), 2000), draw(gen(8), 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
	z := func(seed int64) []int {
		s := workload.NewZipf(edgeFiles, zipfS, seed)
		out := make([]int, 500)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}
	if !reflect.DeepEqual(z(3), z(3)) || reflect.DeepEqual(z(3), z(4)) {
		t.Error("edge-replay file sequence does not follow its seed")
	}
	if !reflect.DeepEqual(smallFiles("hot", 5, 100, 4096, 4096), smallFiles("hot", 5, 100, 4096, 4096)) {
		t.Error("placement does not follow its seed")
	}
}

func TestQuantilesAreExactOrderStatistics(t *testing.T) {
	var s samples
	for _, i := range rand.New(rand.NewSource(1)).Perm(1000) {
		s = append(s, time.Duration(i+1))
	}
	for q, want := range map[float64]time.Duration{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000, 0.0001: 1} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := maxSupportedPct(1000); got != 99 {
		t.Errorf("maxSupportedPct(1000) = %v, want 99", got)
	}
	if got := maxSupportedPct(10); got != 0 {
		t.Errorf("maxSupportedPct(10) = %v, want 0", got)
	}
	sum := s.summary()
	if sum.N != 1000 || sum.P50US != 0.5 || sum.MaxPctUS != 0.99 || sum.MaxUS != 1 {
		t.Errorf("summary = %+v", sum)
	}

	// Ten slices of 1000: nine with a p99 of 10 µs and one with a stall;
	// the sliced p99 is the typical slice's, not the stall's.
	per := make([]jobStats, 2)
	for c := range 10 {
		for i := range 1000 {
			d := 10 * time.Microsecond
			if i%100 == 0 {
				d = 20 * time.Microsecond // one sample in a hundred per slice
			}
			if c == 4 && i < 50 {
				d = 50 * time.Millisecond
			}
			per[i%2].open = append(per[i%2].open, d)
		}
	}
	if got := slicedP99(per, func(s *jobStats) samples { return s.open }); got != 10*time.Microsecond {
		t.Errorf("slicedP99 = %v, want 10µs", got)
	}
}

// A stalled cold op lets its job go on, and still counts once it ends:
// in the op timings with its whole latency and in the stalled count.
func TestStalledOpCountsWhenItEnds(t *testing.T) {
	var late lateOps
	st := jobStats{start: time.Now()}
	op := func(d time.Duration) func(*jobStats) {
		return func(own *jobStats) {
			own.attempted++
			time.Sleep(d)
			own.opLat = append(own.opLat, d)
			own.now().ops++
		}
	}
	if late.run(&st, op(time.Millisecond)) {
		t.Fatal("a 1 ms op stalled")
	}
	t0 := time.Now()
	if !late.run(&st, op(stallAfter+200*time.Millisecond)) {
		t.Fatal("an op longer than stallAfter did not stall")
	}
	if waited := time.Since(t0); waited > stallAfter+100*time.Millisecond {
		t.Errorf("the job waited %v for a stalled op", waited)
	}
	if st.attempted != 1 {
		t.Errorf("before the phase ends: %d ops attempted, want 1", st.attempted)
	}
	if n := late.finish(&st); n != 1 {
		t.Errorf("finish reported %d stalled ops, want 1", n)
	}
	if st.attempted != 2 || len(st.opLat) != 2 || st.opLat[1] < stallAfter {
		t.Errorf("after the phase: %d attempted, latencies %v", st.attempted, st.opLat)
	}
	ops := 0
	for _, sec := range st.perSec {
		ops += sec.ops
	}
	if ops != 2 || st.perSec[0].ops != 1 {
		t.Errorf("per-second ops %+v: the stalled op should count in the second it ended", st.perSec)
	}
}

func TestCheckerCatchesAFlippedByte(t *testing.T) {
	const path = "/perfbench/t/f1"
	ph := pathHash(path)
	data := pattern(ph, 9, 0, 4099)
	if err := checkPattern(path, data, ph, 9, 0); err != nil {
		t.Fatal(err)
	}
	// An unaligned read of the middle checks too.
	if err := checkPattern(path, data[13:3001], ph, 9, 13); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 7, 8, 2048, 4098} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x20
		err := checkPattern(path, bad, ph, 9, 0)
		if err == nil || !strings.Contains(err.Error(), "offset") {
			t.Errorf("flipped byte at %d: err = %v", off, err)
		}
	}
	if checkPattern(path, data, ph, 10, 0) == nil {
		t.Error("bytes of another seed passed")
	}
	if checkPattern(path, data, pathHash("/perfbench/t/f2"), 9, 0) == nil {
		t.Error("bytes of another file passed")
	}
	if checkPattern(path, data[8:], ph, 9, 0) == nil {
		t.Error("bytes of another offset passed")
	}
}

func TestCheckerCatchesAMisdirectedRedirect(t *testing.T) {
	var tr tree
	for _, addr := range []string{"127.0.0.1:1001", "127.0.0.1:1002"} {
		n, err := cmsd.NewNode(cmsd.NodeConfig{Name: "s", Role: proto.RoleServer,
			DataAddr: addr, Store: store.New(store.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		tr.srvs = append(tr.srvs, n)
	}
	b := &bench{t: &tr}
	f := file{path: "/x", srv: 1}
	if err := b.checkRedirect(f, "127.0.0.1:1002"); err != nil {
		t.Errorf("redirect to the placed server rejected: %v", err)
	}
	if err := b.checkRedirect(f, "127.0.0.1:1001"); err == nil {
		t.Error("redirect to the wrong server accepted")
	}
}

func TestFrameKeyIsThePathHash(t *testing.T) {
	p := strings.Repeat("/long", 40) + "/f"
	for _, m := range []proto.Message{proto.Open{Path: p}, proto.Stat{Path: p}, proto.Locate{Path: p}} {
		if got := frameKey(proto.MarshalStream(m, 5)); got != pathHash(p) {
			t.Errorf("%T: frameKey = %x, want %x", m, got, pathHash(p))
		}
	}
	if frameKey(proto.MarshalStream(proto.Read{FH: 1, N: 9}, 5)) != 0 {
		t.Error("a Read frame has a path key")
	}
}

// tracedPair returns a connected pair of decorated TCP connections,
// dialing side first, with recording on.
func tracedPair(t *testing.T) (*transport.TCPNet, *traceNet, *traceNet, transport.Conn, transport.Conn) {
	t.Helper()
	tcp := transport.TCP()
	rec := newRecorder()
	rec.start(1 << 12)
	daemon, cli := newTraceNet(tcp, rec, false), newTraceNet(tcp, rec, true)
	addrs, err := reserveAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := daemon.Listen(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(acc)
			return
		}
		acc <- c
	}()
	c, err := cli.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	s, ok := <-acc
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return tcp, daemon, cli, c, s
}

func TestTracedReceiveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rec := newRecorder()
	rec.start(1 << 12)
	addrs, err := reserveAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := newTraceNet(transport.TCP(), rec, false).Listen(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The sender writes pre-framed bytes on a plain socket, so that
	// only the decorated receive is counted.
	raw, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	frame := proto.MarshalStream(proto.Read{FH: 3, Off: 4096, N: 512}, 9)
	one := binary.BigEndian.AppendUint32(nil, uint32(len(frame)))
	burst := bytes.Repeat(append(one, frame...), 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := raw.Write(burst); err != nil {
				return
			}
		}
	}()
	defer func() { raw.Close(); s.Close(); <-done }()
	recv := func() {
		f, err := transport.RecvFrame(s)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	for range 200 {
		recv() // warm the frame pool and the receive buffer
	}
	if allocs := testing.AllocsPerRun(500, recv); allocs > 0 {
		t.Fatalf("decorated pooled receive allocates %.1f per frame, want 0", allocs)
	}
}

func TestTraceTotalsMatchWireCounters(t *testing.T) {
	tcp, daemon, cli, c, s := tracedPair(t)
	base := tcp.Wire()
	rng := rand.New(rand.NewSource(42))
	const n = 400
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = rng.Intn(70000)
	}
	errc := make(chan error, 1)
	go func() {
		for _, size := range sizes {
			f, err := transport.RecvFrame(s)
			if err != nil {
				errc <- err
				return
			}
			f.Release()
			if err := transport.SendMessageStream(s, proto.WriteOK{FH: 1, N: uint32(size)}, 1); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, size := range sizes {
		m := proto.Write{FH: 1, Off: int64(i), Bytes: make([]byte, size)}
		if err := transport.SendMessageStream(c, m, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
		f, err := transport.RecvFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	w := tcp.Wire().Sub(base)
	framesOut := daemon.framesOut.Load() + cli.framesOut.Load()
	framesIn := daemon.framesIn.Load() + cli.framesIn.Load()
	bytesOut := daemon.bytesOut.Load() + cli.bytesOut.Load()
	bytesIn := daemon.bytesIn.Load() + cli.bytesIn.Load()
	if framesOut != 2*n || w.FramesOut != framesOut || w.FramesIn != framesIn {
		t.Errorf("frames: decorator out %d in %d, wire out %d in %d", framesOut, framesIn, w.FramesOut, w.FramesIn)
	}
	// The wire counts each frame's 4-byte length prefix as well.
	if w.BytesOut != bytesOut+4*framesOut || w.BytesIn != bytesIn+4*framesIn {
		t.Errorf("bytes: decorator out %d in %d, wire out %d in %d", bytesOut, bytesIn, w.BytesOut, w.BytesIn)
	}
	if wire, ok := transport.WireOf(cli); !ok || wire.FramesOut == 0 {
		t.Error("transport.WireOf does not see through the decorator")
	}
}

func TestAnalyzeSplitsAnOpenIntoHops(t *testing.T) {
	const key = 77
	// One open of 100 µs: three hops, each with a daemon residence.
	ev := func(t int64, conn uint32, ep uint16, flags uint8, fp uint64) event {
		return event{t: t * 1000, conn: conn, sid: 1, ep: ep, kind: uint8(proto.KOpen), flags: flags, fp: fp, key: key}
	}
	evs := []event{
		ev(10, 1, 0, evSend|evClient, 1), ev(15, 2, 0, evAccepted, 1), ev(20, 2, 0, evAccepted|evSend, 1), ev(30, 1, 0, evClient, 1),
		ev(40, 3, 1, evSend|evClient, 2), ev(45, 4, 1, evAccepted, 2), ev(50, 4, 1, evAccepted|evSend, 2), ev(60, 3, 1, evClient, 2),
		ev(70, 5, 2, evSend|evClient, 3), ev(75, 6, 2, evAccepted, 3), ev(85, 6, 2, evAccepted|evSend, 3), ev(90, 5, 2, evClient, 3),
	}
	hops, res := pairEvents(evs)
	if len(hops) != 3 || len(res) != 3 {
		t.Fatalf("%d hops, %d residences, want 3 and 3", len(hops), len(res))
	}
	roles := map[uint16]string{0: roleManager, 1: roleSupervisor, 2: roleServer}
	b := analyze(hops, res, []opSpan{{key: key, t0: 0, t1: 100_000}}, roles)
	if b.opsMatched != 1 || b.hopsPerOp[0] != 3 {
		t.Fatalf("matched %d opens, hops %v", b.opsMatched, b.hopsPerOp)
	}
	// 100 µs span minus 3 × 20 µs of hops.
	if b.self[0] != 40*time.Microsecond {
		t.Errorf("self = %v, want 40µs", b.self[0])
	}
	if got := b.wire.quantile(0.5); got != 15*time.Microsecond {
		t.Errorf("wire p50 = %v, want 15µs", got)
	}
	if got := b.residence[roleServer+"/Open"][0]; got != 10*time.Microsecond {
		t.Errorf("server residence = %v, want 10µs", got)
	}
	// A second open of the same path overlapping the first is ambiguous.
	b = analyze(hops, res, []opSpan{{key: key, t0: 0, t1: 100_000}, {key: key, t0: 50_000, t1: 120_000}}, roles)
	if b.opsMatched != 0 || b.ambiguous != 2 {
		t.Errorf("overlapping opens: matched %d, ambiguous %d", b.opsMatched, b.ambiguous)
	}
}

// TestBenchmarkFileNamesEveryMetric keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkFileNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if doc.EndToEnd[i].Name != m.name || doc.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program prints %s in %s", i, doc.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, d, m)
		}
	}
}
