package serve

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// Client is one synchronous connection to a decision server: each call
// sends one frame and blocks for its response. Throughput comes from
// batching (Decide amortizes framing over the whole burst), not from
// pipelining, which keeps the client trivially correct. A Client is not
// goroutine-safe; give each stream its own.
type Client struct {
	conn net.Conn
	wc   wire.Conn
	// batch holds the last batch frame; the next Decide encodes over it.
	batch []byte
}

// Dial connects to a server and leases the session for key. Reconnect
// with the same key to resume a trained filter; concurrent use of one
// key fails with wire.ErrSessionBusy.
//
// The server frees a lease once it has stopped serving the connection
// that held it, and before it closes that connection. When the server
// ends a stream itself, with a typed error frame, it frees the lease
// before sending the frame, so a reconnect right after that error is
// accepted. Close waits for the server to close its side, so a
// reconnect right after Close is accepted too.
func Dial(addr, key string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, wc: wire.NewConn(conn, MaxFrame, boundFor)}
	if _, err := c.wc.Exchange(encodeHello(key), opOK); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// closeWait bounds how long Close waits for the server to close its
// side of the connection.
const closeWait = 2 * time.Second

// Close ends the session. It half-closes the connection, reads until the
// server closes its side, which the server does only after releasing
// the session lease, and then closes the connection. Once Close returns,
// a Dial with the same key finds the lease free, unless the server took
// longer than closeWait to close.
func (c *Client) Close() error {
	if c.conn.(*net.TCPConn).CloseWrite() == nil {
		// A read deadline in the past interrupts the read below.
		expire := time.AfterFunc(closeWait, func() { c.conn.SetReadDeadline(time.Unix(1, 0)) })
		io.Copy(io.Discard, c.conn)
		expire.Stop()
	}
	return c.conn.Close()
}

// Decide streams a batch of events and returns the filter's verdict for
// each candidate event, in stream order. Training events contribute no
// decision. The server applies the batch sequentially, so the result is
// bit-identical to sending the events one at a time. A reply holding
// any other number of verdicts than the batch has candidates is
// wire.ErrBadFrame. The returned slice is the caller's: the next call
// does not reuse it.
func (c *Client) Decide(events []engine.Event) ([]core.Decision, error) {
	c.batch = encodeBatch(c.batch, events)
	f, err := c.wc.Exchange(c.batch, opDecisions)
	if err != nil {
		return nil, err
	}
	want := 0
	for i := range events {
		if events[i].Kind == engine.KindCandidate {
			want++
		}
	}
	got, err := decodeDecisions(f, make([]core.Decision, 0, want))
	if err == nil && len(got) != want {
		return nil, fmt.Errorf("%w: %d verdicts for %d candidates", wire.ErrBadFrame, len(got), want)
	}
	return got, err
}

// Stats fetches the session's filter counters.
func (c *Client) Stats() (core.Stats, error) {
	f, err := c.wc.Exchange(wire.Body(opStats, nil), opStatsRep)
	if err != nil {
		return core.Stats{}, err
	}
	var st core.Stats
	st.SnapshotWalk(f.W)
	if err := wire.Finish(f.W); err != nil {
		return core.Stats{}, err
	}
	return st, nil
}

// Snapshot fetches the session's self-validating snapshot blob, loadable
// into a local engine.Session via Restore.
func (c *Client) Snapshot() ([]byte, error) {
	f, err := c.wc.Exchange(wire.Body(opSnapshot, nil), opSnapRep)
	if err != nil {
		return nil, err
	}
	blob, err := wire.ReadBytes(f.W, f.Len)
	if err != nil {
		return nil, err
	}
	if err := wire.Finish(f.W); err != nil {
		return nil, err
	}
	return blob, nil
}

// Reset returns the session to its freshly-created state.
func (c *Client) Reset() error {
	_, err := c.wc.Exchange(wire.Body(opReset, nil), opOK)
	return err
}
