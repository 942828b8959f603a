package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// The protocol's caps, which every connection and client shares.
const (
	// MaxFrame bounds a frame body (4 MiB): far above any sane batch,
	// far below an allocation a hostile length prefix could weaponize.
	MaxFrame = 4 << 20
	// MaxBatch bounds the events in one batch frame.
	MaxBatch = 8192
)

// shedTimeout bounds each response write. A client that has not taken
// a response within it is shed with wire.ErrOverloaded, so a peer that
// stops reading cannot pin its connection and session.
const shedTimeout = 2 * time.Second

// errorFrameTimeout bounds the error frame's socket write on the way
// out of a server-initiated close, so a peer that stopped reading
// cannot pin the connection.
const errorFrameTimeout = 100 * time.Millisecond

// Config has no fields: every session wraps core.DefaultConfig(), and
// the caps are MaxFrame and MaxBatch. NewServer keeps it as its argument
// because the perfbench module calls NewServer(Config{}).
type Config struct{}

// Server accepts prefetch-decision streams. Each connection leases one
// session and is served on its own goroutine, one request at a time:
// read a frame, apply it to the session, write and flush the response,
// then read the next. A client that sends faster than it is served is
// held back by TCP, since the server reads nothing until the current
// response is written. A client that stops reading responses is shed
// with wire.ErrOverloaded once a response write has waited shedTimeout.
type Server struct {
	// mu guards the listener, the connection table and the sessions. A
	// session changes hands only at connect and disconnect; the
	// per-event path runs lock-free on the owning connection's
	// goroutine.
	mu sync.Mutex
	//ppflint:guardedby mu
	lis net.Listener
	//ppflint:guardedby mu
	conns map[net.Conn]struct{}
	//ppflint:guardedby mu
	sessions map[string]*lease
	//ppflint:guardedby mu
	closed bool
	wg     sync.WaitGroup

	sheds atomic.Uint64
}

// lease is one session slot: the session plus whether a live
// connection currently owns it. Sessions outlive connections — a client
// that reconnects with the same key resumes its trained filter.
type lease struct {
	//ppflint:guardedby Server.mu
	sess *engine.Session
	//ppflint:guardedby Server.mu
	inUse bool
}

// NewServer builds a server.
func NewServer(Config) *Server {
	return &Server{conns: make(map[net.Conn]struct{}), sessions: make(map[string]*lease)}
}

// Sheds reports how many connections were dropped for not draining
// their responses.
func (s *Server) Sheds() uint64 { return s.sheds.Load() }

// Sessions reports the number of registered sessions (live or parked
// awaiting reconnect).
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// acquire leases the session for key, creating it on first sight.
// A key already leased to a live connection fails with wire.ErrSessionBusy:
// sessions are single-goroutine by design, so two connections may never
// drive one concurrently.
func (s *Server) acquire(key string) (*engine.Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.sessions[key]
	if !ok {
		l = &lease{sess: engine.New(core.DefaultConfig())}
		s.sessions[key] = l
	}
	if l.inUse {
		return nil, wire.ErrSessionBusy
	}
	l.inUse = true
	return l.sess, nil
}

// release returns the lease without discarding the session, so the
// trained filter survives for a reconnect.
func (s *Server) release(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[key].inUse = false
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener, severs every live connection, and waits for
// their handlers to return. Sessions stay registered; a server is
// single-use but its sessions are inspectable after Close.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

// stream is one served connection's state: the leased session and the
// buffers every batch reuses. The buffers grow to the largest batch
// seen, at most MaxBatch events.
type stream struct {
	sess      *engine.Session
	events    []engine.Event
	decisions []core.Decision
	// reply holds the last decisions frame; the next batch encodes over
	// it once the frame has been sent.
	reply []byte
}

// handle runs one connection's lifecycle: the hello handshake, then one
// request at a time until EOF, a protocol error, a shed, or server
// close.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	rd := wire.NewReader(conn, MaxFrame)
	bw := bufio.NewWriter(conn)

	key, err := readHello(rd)
	if err != nil {
		writeErrorFrame(conn, err)
		return
	}
	sess, err := s.acquire(key)
	if err != nil {
		writeErrorFrame(conn, err)
		return
	}
	// The hello's acknowledgement needs no shed deadline: it is the first
	// write to the socket, and five bytes always fit the empty send
	// buffer.
	var reason error
	if wire.Send(bw, wire.Body(opOK, nil)) == nil {
		reason = s.serve(conn, rd, bw, &stream{sess: sess})
	}
	// Nothing drives the session any more: release the lease, and only
	// then tell the client why the server is closing. A client that
	// reconnects with the same key as soon as it reads the error frame
	// finds the lease free.
	s.release(key)
	if reason != nil {
		writeErrorFrame(conn, reason)
	}
}

// serve answers requests in order until the client leaves, the
// transport fails, the server closes, or the server ends the stream
// itself (a protocol error or a shed). It returns the error the client
// is owed when the server ended the stream, nil otherwise. Each
// response is flushed before the next read, so the buffered writer is
// empty whenever an error frame is due.
func (s *Server) serve(conn net.Conn, rd *wire.Reader, bw *bufio.Writer, st *stream) error {
	for {
		f, err := wire.ReadRequest(rd, boundFor)
		var op uint8
		if err == nil {
			op, err = st.parse(f)
		}
		if err != nil {
			// A malformed or oversized frame is owed its typed error; EOF
			// and transport failures end the stream silently.
			var we *wire.Error
			if errors.As(err, &we) {
				return err
			}
			return nil
		}
		// The deadline covers the write, not just the flush: bufio
		// writes through on its own once a response outgrows its buffer.
		conn.SetWriteDeadline(time.Now().Add(shedTimeout)) //ppflint:allow determinism socket deadline, not report data
		if err := wire.Send(bw, st.execute(op)); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// The client has not taken a response for shedTimeout.
				s.sheds.Add(1)
				return wire.ErrOverloaded
			}
			return nil
		}
	}
}

// readHello enforces the handshake: the first frame must be opHello
// with a non-empty key.
func readHello(rd *wire.Reader) (string, error) {
	f, err := wire.ReadHello(rd, opHello, boundFor)
	if err != nil {
		return "", err
	}
	key, err := wire.ReadBytes(f.W, f.Len)
	if err != nil {
		return "", err
	}
	if err := wire.Finish(f.W); err != nil {
		return "", err
	}
	if len(key) == 0 {
		return "", fmt.Errorf("%w: empty session key", wire.ErrBadFrame)
	}
	return string(key), nil
}

// parse decodes one post-hello frame, already held to its op's bound,
// and returns its op. A batch decodes into st.events.
func (st *stream) parse(f wire.Frame) (uint8, error) {
	switch f.Op {
	case opBatch:
		events, err := decodeBatch(f.W, st.events)
		if err != nil {
			return 0, err
		}
		st.events = events
	case opStats, opSnapshot, opReset:
		if err := wire.Finish(f.W); err != nil {
			return 0, err
		}
	case opHello:
		return 0, fmt.Errorf("%w: duplicate hello", wire.ErrBadOrder)
	default:
		return 0, fmt.Errorf("%w: unknown op 0x%02x", wire.ErrBadFrame, f.Op)
	}
	return f.Op, nil
}

// execute runs one parsed request against the session and builds the
// response frame body.
func (st *stream) execute(op uint8) []byte {
	switch op {
	case opBatch:
		st.decisions = st.sess.ApplyBatch(st.events, st.decisions[:0])
		st.reply = encodeDecisions(st.reply, st.decisions)
		return st.reply
	case opStats:
		stats := st.sess.Stats()
		return wire.Body(opStatsRep, stats.SnapshotWalk)
	case opSnapshot:
		blob, err := st.sess.Snapshot()
		if err != nil {
			return wire.ErrorBody(err, wire.CodeInternal)
		}
		return encodeSnapRep(blob)
	case opReset:
		st.sess.Reset()
		return wire.Body(opOK, nil)
	default:
		return wire.ErrorBody(fmt.Errorf("unknown op 0x%02x", op), wire.CodeBadFrame)
	}
}

// writeErrorFrame best-effort delivers a typed error before the
// connection dies. No response is ever left in a buffered writer, so
// the frame goes straight to the socket, under a short deadline so a
// stuck peer cannot pin this goroutine.
func writeErrorFrame(conn net.Conn, err error) {
	conn.SetWriteDeadline(time.Now().Add(errorFrameTimeout)) //ppflint:allow determinism socket deadline, not report data
	wire.WriteFrame(conn, wire.ErrorBody(err, wire.CodeInternal))
}
