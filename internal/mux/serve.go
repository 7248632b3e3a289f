package mux

import (
	"fmt"

	"scalla/internal/obs"
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

// ServeOptions tunes a responder-side dispatch loop.
type ServeOptions struct {
	// Tracer records one span per dispatched request (kind, stream,
	// reply) when enabled. Default: no tracing.
	Tracer *obs.Tracer
	// OnError, if set, receives frame decode errors before the loop
	// stops serving the connection.
	OnError func(err error)
	// Sched, if set, routes this connection's requests through a
	// server-wide Scheduler: strict-priority control lane, DRR fairness
	// across connections, and bounded-queue shedding with RetryAfter
	// verdicts (DESIGN.md §11). Without it dispatch is serial and
	// inline, one request at a time.
	Sched *Scheduler
}

// Responder sends stream-tagged replies for one in-flight request.
// Concurrent workers write straight to the connection — transport.Conn
// Send is safe for any number of concurrent callers, and on the TCP
// transport overlapping repliers coalesce into shared vectored-write
// batches rather than queueing on a lock.
type Responder struct {
	st  *serveState
	sid uint32
}

// Stream returns the stream ID of the request being answered, which
// every reply must echo.
func (r Responder) Stream() uint32 { return r.sid }

// Send marshals m tagged with the request's stream and writes it out.
func (r Responder) Send(m proto.Message) error {
	return transport.SendMessageStream(r.st.conn, m, r.sid)
}

// SendFrame writes a pre-marshaled pooled frame — which the caller
// must already have tagged with Stream() — and releases it. This is
// the single-copy read path: the payload is marshaled straight into
// the frame and never copied again.
func (r Responder) SendFrame(f *proto.Frame) error {
	err := r.st.conn.Send(f.Bytes())
	f.Release()
	return err
}

// serveState is the per-connection dispatch state shared by workers.
type serveState struct {
	conn transport.Conn
}

// Serve reads frames from conn and dispatches them to h until the
// connection fails or a frame fails to decode. With opt.Sched set,
// requests run on the shared scheduler's workers, replies go out of
// order tagged by stream, and overflow is shed with RetryAfter rather
// than blocking the reader. Without it each request is handled inline
// before the next frame is read. Either way Serve returns only after
// every in-flight handler has finished.
func Serve(conn transport.Conn, h Handler, opt ServeOptions) {
	if opt.Sched != nil {
		serveSched(conn, h, opt)
		return
	}
	st := &serveState{conn: conn}
	for {
		m, sid, f, err := recvOne(conn, opt)
		if err != nil {
			return
		}
		dispatch(h, m, Responder{st: st, sid: sid}, opt)
		f.Release()
	}
}

// serveSched is the scheduled Serve loop: decode, enqueue, and answer
// sheds inline. The scheduler's workers run the handlers; unregister
// blocks until this connection's in-flight handlers drain, preserving
// Serve's return contract for callers that close handles afterward.
func serveSched(conn transport.Conn, h Handler, opt ServeOptions) {
	st := &serveState{conn: conn}
	c := opt.Sched.register(st, h, opt)
	defer opt.Sched.unregister(c)
	for {
		m, sid, f, err := recvOne(conn, opt)
		if err != nil {
			return
		}
		if shedded, millis := opt.Sched.enqueue(c, m, sid, f); shedded {
			f.Release()
			// Best effort: if the conn is failing the reader sees it.
			_ = transport.SendMessageStream(conn, proto.RetryAfter{Millis: millis}, sid)
		}
	}
}

// recvOne reads and decodes the next request frame. The returned frame
// is pooled and owns the message's aliased bytes; the caller releases
// it once the request has been fully handled.
func recvOne(conn transport.Conn, opt ServeOptions) (proto.Message, uint32, *proto.Frame, error) {
	f, err := transport.RecvFrame(conn)
	if err != nil {
		return nil, 0, nil, err
	}
	m, sid, err := proto.UnmarshalStream(f.Bytes())
	if err != nil {
		f.Release()
		if opt.OnError != nil {
			opt.OnError(err)
		}
		return nil, 0, nil, err
	}
	return m, sid, f, nil
}

// dispatch runs one request through the handler, tracing it and
// sending the returned reply (if any).
func dispatch(h Handler, m proto.Message, r Responder, opt ServeOptions) {
	var sp *obs.Span
	if opt.Tracer.Enabled() {
		sp = opt.Tracer.Start("dispatch", fmt.Sprintf("%T sid=%d", m, r.Stream()))
	}
	reply := h(m, r)
	if reply == nil {
		sp.End("handled")
		return
	}
	if err := r.Send(reply); err != nil {
		sp.End("send failed")
		return
	}
	if sp != nil {
		sp.End(fmt.Sprintf("%T", reply))
	}
}
