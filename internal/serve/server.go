package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// Defaults for Config zero values.
const (
	// DefaultQueueDepth bounds the per-connection request and response
	// queues. Deep enough to keep a pipelining client's worker busy,
	// shallow enough that one slow client holds only a bounded number
	// of response frames in memory.
	DefaultQueueDepth = 32
	// DefaultMaxFrame bounds a frame body (4 MiB): far above any sane
	// batch, far below an allocation a hostile length prefix could
	// weaponize.
	DefaultMaxFrame = 4 << 20
	// DefaultMaxBatch bounds events per batch frame.
	DefaultMaxBatch = 8192
	// DefaultShedTimeout is how long a worker waits on the full
	// response queue of a non-draining client before shedding it.
	DefaultShedTimeout = 2 * time.Second
)

// errorFrameTimeout bounds each socket write on the way out of a
// server-initiated close — flushing queued responses, then the error
// frame — so a peer that stopped reading cannot pin the connection.
const errorFrameTimeout = 100 * time.Millisecond

// Config parameterizes a Server. The zero value serves DefaultConfig
// filters with the default bounds.
type Config struct {
	// Filter configures the perceptron filter each new session wraps.
	// Zero means core.DefaultConfig().
	Filter core.Config
	// QueueDepth bounds the per-connection request/response queues.
	QueueDepth int
	// MaxFrame bounds an incoming frame body in bytes.
	MaxFrame int
	// MaxBatch bounds the events accepted in one batch frame.
	MaxBatch int
	// ShedTimeout is the patience before a non-draining client is shed.
	ShedTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Filter.Features == nil && c.Filter.TauHi == 0 && c.Filter.TauLo == 0 {
		c.Filter = core.DefaultConfig()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.ShedTimeout <= 0 {
		c.ShedTimeout = DefaultShedTimeout
	}
	return c
}

// Server accepts prefetch-decision streams. Each connection leases one
// session and gets a three-stage pipeline — reader, worker, writer —
// joined by bounded queues: the reader parses frames and stops reading
// (TCP backpressure) when the worker falls behind; the worker drives
// the session single-threaded; the writer drains responses to the
// socket. A client that stops draining responses is shed after
// ShedTimeout with wire.ErrOverloaded rather than pinning server memory.
type Server struct {
	cfg Config
	reg registry

	mu sync.Mutex
	//ppflint:guardedby mu
	lis net.Listener
	//ppflint:guardedby mu
	conns map[net.Conn]struct{}
	//ppflint:guardedby mu
	closed bool
	wg     sync.WaitGroup

	sheds atomic.Uint64
}

// NewServer builds a server; zero-valued config fields take defaults.
func NewServer(cfg Config) *Server {
	return &Server{cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
}

// Sheds reports how many connections were dropped for not draining
// their responses.
func (s *Server) Sheds() uint64 { return s.sheds.Load() }

// Sessions reports the number of registered sessions (live or parked
// awaiting reconnect).
func (s *Server) Sessions() int { return s.reg.count() }

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Addr returns the listener address once Serve has begun, for tests and
// the loadtest harness binding to port 0.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
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
// their pipelines to unwind. Sessions stay registered; a server is
// single-use but its registry state is inspectable after Close.
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

// request is one parsed client frame handed from reader to worker.
type request struct {
	op     uint8
	events []engine.Event
}

// handle runs one connection's lifecycle: hello handshake, then the
// reader/worker/writer pipeline until EOF, protocol error, shed, or
// server close.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	key, err := s.readHello(br)
	if err != nil {
		s.writeErrorFrame(conn, bw, err)
		return
	}
	sess, err := s.reg.acquire(key, s.cfg.Filter)
	if err != nil {
		s.writeErrorFrame(conn, bw, err)
		return
	}
	var reason error
	if wire.Send(bw, wire.Body(opOK, nil)) == nil {
		reason = s.pipeline(conn, br, bw, sess)
	}
	// The pipeline's worker has exited, so nothing drives the session:
	// release the lease, exactly once, and only then tell the client why
	// the server is closing. A client that reconnects with the same key
	// as soon as it reads the error frame finds the lease free.
	s.reg.release(key)
	if reason != nil {
		s.writeErrorFrame(conn, nil, reason)
	}
}

// pipeline serves an acquired session until the client leaves, the
// transport fails, the server closes, or the server ends the stream
// itself (a protocol error or a shed). It returns once the worker and
// the writer have exited, with the error the client is owed when the
// server ended the stream, nil otherwise.
func (s *Server) pipeline(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, sess *engine.Session) error {
	reqCh := make(chan request, s.cfg.QueueDepth)
	respCh := make(chan []byte, s.cfg.QueueDepth)
	done := make(chan struct{})
	var (
		stopOnce sync.Once
		reason   error
	)
	// stop ends the pipeline, once. A nil cause means the client or the
	// transport ended it, and closing the connection unblocks every
	// stage. A server-initiated close keeps the connection open for the
	// error frame, so deadlines cut the reader's and the writer's
	// blocking socket calls short instead.
	stop := func(cause error) {
		stopOnce.Do(func() {
			reason = cause
			close(done)
			if cause == nil {
				conn.Close()
				return
			}
			now := time.Now() //ppflint:allow determinism socket deadline, not report data
			conn.SetReadDeadline(now)
			conn.SetWriteDeadline(now.Add(errorFrameTimeout))
		})
	}

	var wg sync.WaitGroup
	wg.Add(2)

	// Worker: single goroutine per session — the lock-free hot path.
	go func() {
		defer wg.Done()
		defer close(respCh)
		buf := make([]core.Decision, 0, s.cfg.MaxBatch)
		shed := time.NewTimer(s.cfg.ShedTimeout)
		defer shed.Stop()
		for {
			var req request
			var ok bool
			select {
			case req, ok = <-reqCh:
			case <-done:
				return
			}
			if !ok {
				return
			}
			resp := s.execute(sess, &req, buf[:0])
			if !shed.Stop() {
				select {
				case <-shed.C:
				default:
				}
			}
			shed.Reset(s.cfg.ShedTimeout)
			select {
			case respCh <- resp:
			case <-shed.C:
				// The response queue sat full for the whole patience
				// window: the client is not draining. Shed it.
				s.sheds.Add(1)
				stop(wire.ErrOverloaded)
				return
			case <-done:
				return
			}
		}
	}()

	// Writer: drains responses to the socket.
	go func() {
		defer wg.Done()
		for resp := range respCh {
			if err := wire.WriteFrame(bw, resp); err != nil {
				stop(nil)
				return
			}
			// Flush when the queue runs dry so a pipelining client's
			// responses coalesce into few syscalls.
			if len(respCh) == 0 {
				if err := bw.Flush(); err != nil {
					stop(nil)
					return
				}
			}
		}
		bw.Flush()
	}()

	// Reader: this goroutine. Blocking on a full reqCh is deliberate —
	// it stops the TCP read loop, which is the backpressure signal to a
	// client outrunning its worker.
	for {
		f, err := wire.ReadRequest(br, s.cfg.MaxFrame, s.bound)
		var req request
		if err == nil {
			req, err = s.parseRequest(f)
		}
		if err != nil {
			// A malformed or oversized frame is owed its typed error; EOF
			// and transport failures end the stream silently.
			var we *wire.Error
			if !errors.As(err, &we) {
				err = nil
			}
			stop(err)
			break
		}
		select {
		case reqCh <- req:
			continue
		case <-done:
		}
		break
	}
	close(reqCh)
	wg.Wait()
	return reason
}

// bound is the server's frame-size table: boundFor at the configured
// caps.
func (s *Server) bound(op uint8) int { return boundFor(op, s.cfg.MaxFrame, s.cfg.MaxBatch) }

// readHello enforces the handshake: the first frame must be opHello
// with a non-empty key.
func (s *Server) readHello(br *bufio.Reader) (string, error) {
	f, err := wire.ReadHello(br, s.cfg.MaxFrame, opHello, s.bound)
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

// parseRequest decodes one post-hello frame, already held to its op's
// bound.
func (s *Server) parseRequest(f wire.Frame) (request, error) {
	switch f.Op {
	case opBatch:
		events, err := decodeBatch(f.W, s.cfg.MaxBatch)
		if err != nil {
			return request{}, err
		}
		return request{op: f.Op, events: events}, nil
	case opStats, opSnapshot, opReset:
		if err := wire.Finish(f.W); err != nil {
			return request{}, err
		}
		return request{op: f.Op}, nil
	case opHello:
		return request{}, fmt.Errorf("%w: duplicate hello", wire.ErrBadOrder)
	default:
		return request{}, fmt.Errorf("%w: unknown op 0x%02x", wire.ErrBadFrame, f.Op)
	}
}

// execute runs one request against the session and builds the response
// frame body. buf is the worker's reusable decision buffer.
func (s *Server) execute(sess *engine.Session, req *request, buf []core.Decision) []byte {
	switch req.op {
	case opBatch:
		return encodeDecisions(sess.ApplyBatch(req.events, buf))
	case opStats:
		st := sess.Stats()
		return wire.Body(opStatsRep, st.SnapshotWalk)
	case opSnapshot:
		blob, err := sess.Snapshot()
		if err != nil {
			return wire.ErrorBody(err, wire.CodeInternal)
		}
		return encodeSnapRep(blob)
	case opReset:
		sess.Reset()
		return wire.Body(opOK, nil)
	default:
		return wire.ErrorBody(fmt.Errorf("unknown op 0x%02x", req.op), wire.CodeBadFrame)
	}
}

// writeErrorFrame best-effort delivers a typed error before the
// connection dies. When bw is nil (the writer goroutine owns the
// buffered writer), the frame goes straight to the socket under a short
// deadline so a stuck peer cannot pin this goroutine.
func (s *Server) writeErrorFrame(conn net.Conn, bw *bufio.Writer, err error) {
	body := wire.ErrorBody(err, wire.CodeInternal)
	if bw != nil {
		wire.Send(bw, body)
		return
	}
	conn.SetWriteDeadline(time.Now().Add(errorFrameTimeout)) //ppflint:allow determinism socket deadline, not report data
	wire.WriteFrame(conn, body)
}
