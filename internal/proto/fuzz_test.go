package proto

import "testing"

// FuzzUnmarshal feeds arbitrary frames to the decoder. Without -fuzz it
// runs the seed corpus as a unit test; with `go test -fuzz=FuzzUnmarshal
// ./internal/proto` it explores mutations. The decoder must never panic,
// every successful decode must re-encode to something decodable, and the
// stream ID in the header must survive the round trip unchanged — the
// invariant the multiplexer's reply routing rests on (streamcheck_test.go
// verifies every message type is seeded here).
func FuzzUnmarshal(f *testing.F) {
	for i, m := range all() {
		f.Add(MarshalStream(m, uint32(i*2654435761+1)))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add([]byte{byte(KLogin)})
	f.Add([]byte{byte(KData), 0, 0, 0})
	inline, dst := StartInlineFrame(5, 4)
	inline.FinishInline(copy(dst, "tail"))
	f.Add(append([]byte(nil), inline.Bytes()...))
	inline.Release()
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, sid, err := UnmarshalStream(frame)
		if err != nil {
			return
		}
		if got := StreamID(frame); got != sid {
			t.Fatalf("StreamID(frame) = %d, UnmarshalStream said %d", got, sid)
		}
		// Round-trippable: re-marshal and re-unmarshal, preserving the
		// stream tag (and again under a different tag — the stream ID
		// must never leak into or depend on the message fields).
		for _, tag := range []uint32{sid, sid ^ 0xA5A5A5A5} {
			again, sid2, err := UnmarshalStream(MarshalStream(m, tag))
			if err != nil {
				t.Fatalf("re-decode failed for %#v: %v", m, err)
			}
			if sid2 != tag {
				t.Fatalf("stream ID changed across round trip: sent %d, got %d", tag, sid2)
			}
			if again.Kind() != m.Kind() {
				t.Fatalf("kind changed across round trip: %v -> %v", m.Kind(), again.Kind())
			}
		}
	})
}
