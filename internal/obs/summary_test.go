package obs

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"scalla/internal/metrics"
	"scalla/internal/vclock"
)

func sampleFrame() Frame {
	return Frame{
		Node: "mgr", Role: "manager",
		Cache: &CacheSummary{
			Entries: 10, Buckets: 17711, LoadFactor: 10.0 / 17711,
			Hits: 5, Misses: 7, Ticks: 3, Epoch: 2, Conn: []uint64{2, 1},
		},
		RespQ:   &RespQSummary{Depth: 4, Released: 9, Expired: 1},
		Cluster: &ClusterSummary{Members: 3, Online: 3},
		Ops: map[string]OpSummary{
			"resolve.latency": {Count: 9, P50US: 120, P99US: 480},
		},
		Counters: map[string]int64{"node.queries": 12},
	}
}

func TestFrameEncodeParseRoundtrip(t *testing.T) {
	f := sampleFrame()
	f.V = FrameVersion
	f.Seq = 3
	f.UnixMS = 1700000000123

	got, err := ParseFrame(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "mgr" || got.Role != "manager" || got.Seq != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Cache == nil || got.Cache.Entries != 10 || got.Cache.Epoch != 2 {
		t.Fatalf("cache section mismatch: %+v", got.Cache)
	}
	if len(got.Cache.Conn) != 2 || got.Cache.Conn[0] != 2 {
		t.Fatalf("conn stamps mismatch: %v", got.Cache.Conn)
	}
	if got.RespQ.Depth != 4 || got.Cluster.Members != 3 {
		t.Fatalf("sections mismatch: %+v", got)
	}
	if got.Ops["resolve.latency"].P99US != 480 {
		t.Fatalf("ops mismatch: %+v", got.Ops)
	}
	if got.Data != nil || got.Net != nil {
		t.Fatal("absent sections should stay nil")
	}
}

func TestParseFrameRejectsGarbageAndWrongVersion(t *testing.T) {
	if _, err := ParseFrame([]byte("not json")); err == nil {
		t.Fatal("garbage should not parse")
	}
	if _, err := ParseFrame([]byte(`{"v":99,"node":"x"}`)); err == nil {
		t.Fatal("future version should be rejected")
	}
}

func TestFrameString(t *testing.T) {
	f := sampleFrame()
	f.V = FrameVersion
	f.Seq = 3
	f.UnixMS = 1700000000123
	s := f.String()
	for _, want := range []string{"mgr/manager #3", "cache=10/17711", "hit=5 miss=7", "respq=4", "members=3/3", "resolve{n=9 p50=120µs p99=480µs}"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	// A server frame renders its data plane and scheduler instead.
	srv := Frame{V: FrameVersion, Node: "srv1", Role: "server",
		Data: &DataSummary{OpenHandles: 2, Reads: 7, Writes: 1},
		Sched: &SchedSummary{QueuedData: 3, InFlight: 2, Shed: 5,
			CtlWait: OpSummary{P99US: 10}, DataWait: OpSummary{P99US: 250}},
		Net: &NetSummary{FramesSent: 40, BytesSent: 1234}}
	s = srv.String()
	for _, want := range []string{"srv1/server", "handles=2 reads=7 writes=1", "sched=3q/2r shed=5 ctl_p99=10µs data_p99=250µs", "net=40f/1234B"} {
		if !strings.Contains(s, want) {
			t.Fatalf("server String() = %q, missing %q", s, want)
		}
	}
}

func TestOpsFromRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("queries").Add(4)
	h := reg.Histogram("resolve.latency")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	ops, ctrs := OpsFromRegistry(reg)
	if ctrs["queries"] != 4 {
		t.Fatalf("counters = %v", ctrs)
	}
	op, ok := ops["resolve.latency"]
	if !ok || op.Count != 100 {
		t.Fatalf("ops = %v", ops)
	}
	if op.P50US <= 0 || op.P99US < op.P50US || op.MaxUS < op.P99US {
		t.Fatalf("quantiles out of order: %+v", op)
	}
	if ops, ctrs = OpsFromRegistry(nil); ops != nil || ctrs != nil {
		t.Fatal("nil registry should yield nil maps")
	}
}

func TestTrimConn(t *testing.T) {
	if got := TrimConn([]uint64{1, 0, 2, 0, 0}); len(got) != 3 || got[2] != 2 {
		t.Fatalf("TrimConn = %v", got)
	}
	if got := TrimConn([]uint64{0, 0}); got != nil {
		t.Fatalf("all-zero TrimConn = %v, want nil", got)
	}
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriterSink(&buf)
	if err := s.Emit([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit([]byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"a\":1}\n{\"b\":2}\n" {
		t.Fatalf("writer sink output %q", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChanSinkDropsWhenFull(t *testing.T) {
	s := NewChanSink(2)
	for i := 0; i < 5; i++ {
		if err := s.Emit([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.C); got != 2 {
		t.Fatalf("buffered %d frames, want 2 (rest dropped)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit([]byte("x")); err == nil {
		t.Fatal("emit after close should error")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
}

func TestUDPSink(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	s, err := NewUDPSink(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Emit([]byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	pc.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != `{"v":1}` {
		t.Fatalf("datagram = %q", buf[:n])
	}
}

func TestTCPSinkRedials(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lines := make(chan string, 8)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					lines <- sc.Text()
				}
				c.Close()
			}(c)
		}
	}()

	s := NewTCPSink(l.Addr().String())
	defer s.Close()
	if err := s.Emit([]byte(`{"seq":1}`)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-lines:
		if got != `{"seq":1}` {
			t.Fatalf("line = %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no line received")
	}
	// Sever the connection; the next Emit may fail, but the sink must
	// redial and deliver eventually.
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := s.Emit([]byte(`{"seq":2}`)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never redialed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case got := <-lines:
		if got != `{"seq":2}` {
			t.Fatalf("line after redial = %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no line after redial")
	}
}

func TestEmitterStampsAndTicks(t *testing.T) {
	clk := vclock.NewFake()
	sink := NewChanSink(8)
	collect := func() Frame { return Frame{Node: "mgr", Role: "manager"} }
	em := NewEmitter(10*time.Second, clk, collect, sink, nil)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); em.Run(stop) }()

	recv := func() Frame {
		t.Helper()
		select {
		case b := <-sink.C:
			f, err := ParseFrame(b)
			if err != nil {
				t.Fatal(err)
			}
			return f
		case <-time.After(5 * time.Second):
			t.Fatal("no frame emitted")
			panic("unreachable")
		}
	}

	clk.BlockUntil(1) // the run loop's ticker
	clk.Advance(10 * time.Second)
	f1 := recv()
	clk.Advance(10 * time.Second)
	f2 := recv()

	if f1.Seq != 1 || f2.Seq != 2 {
		t.Fatalf("seq = %d,%d, want 1,2", f1.Seq, f2.Seq)
	}
	if f1.V != FrameVersion || f1.Node != "mgr" {
		t.Fatalf("frame not stamped: %+v", f1)
	}
	if f2.UnixMS-f1.UnixMS != 10_000 {
		t.Fatalf("timestamps %d,%d not one period apart", f1.UnixMS, f2.UnixMS)
	}

	close(stop)
	<-done
	// Run closes the sink on exit.
	if _, ok := <-sink.C; ok {
		t.Fatal("sink channel should be closed after Run exits")
	}
}

// BenchmarkFrameEncode measures one summary frame's round trip through
// the monitoring stream's codec: Encode, then ParseFrame.
func BenchmarkFrameEncode(b *testing.B) {
	f := Frame{
		V: FrameVersion, Node: "mgr", Role: "manager", Seq: 1,
		Cache:   &CacheSummary{Entries: 100_000, Buckets: 196_418},
		RespQ:   &RespQSummary{Depth: 12},
		Cluster: &ClusterSummary{Members: 64, Online: 64},
		Ops:     map[string]OpSummary{"resolve.latency": {Count: 1000, P50US: 120}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFrame(f.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}
