package mux

import (
	"scalla/internal/proto"
	"scalla/internal/transport"
)

// Handler processes one decoded request. Returning a non-nil message
// sends it as the stream-tagged reply; returning nil sends nothing —
// either the request wants no reply, or the handler already replied
// itself through the Responder (the single-copy Data path).
//
// Requests decode from pooled frames that the serve loop recycles as
// soon as the handler returns: a handler must not retain m — or any
// byte slice decoded from it (proto.Write.Bytes aliases the frame) —
// past its own return. Copy what must outlive the call.
type Handler func(m proto.Message, r Responder) proto.Message

// Responder sends stream-tagged replies for one in-flight request.
// Concurrent workers write straight to the connection — transport.Conn
// Send is safe for any number of concurrent callers, and on the TCP
// transport overlapping repliers coalesce into shared vectored-write
// batches rather than queueing on a lock.
type Responder struct {
	conn transport.Conn
	sid  uint32
}

// Stream returns the stream ID of the request being answered, which
// every reply must echo.
func (r Responder) Stream() uint32 { return r.sid }

// Send marshals m tagged with the request's stream and writes it out.
func (r Responder) Send(m proto.Message) error {
	return transport.SendMessageStream(r.conn, m, r.sid)
}

// SendFrame writes a pre-marshaled pooled frame — which the caller
// must already have tagged with Stream() — and releases it. This is
// the single-copy read path: the payload is marshaled straight into
// the frame and never copied again.
func (r Responder) SendFrame(f *proto.Frame) error {
	err := r.conn.Send(f.Bytes())
	f.Release()
	return err
}
