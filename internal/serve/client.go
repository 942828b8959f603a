package serve

import (
	"net"

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
// that held it. When the server ends a stream itself, with a typed error
// frame, it frees the lease before sending the frame, so a reconnect
// right after that error is accepted. When the client drops the link
// (Close, or a broken connection), the server notices asynchronously,
// so a Dial with the same key right after the drop may still fail with
// wire.ErrSessionBusy; that error is then retryable after a short wait.
func Dial(addr, key string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, wc: wire.NewConn(conn, DefaultMaxFrame, responseBound)}
	if _, err := c.wc.Exchange(encodeHello(key), opOK); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close severs the connection, releasing the session lease server-side
// once the server notices (see Dial).
func (c *Client) Close() error { return c.conn.Close() }

// Decide streams a batch of events and returns the filter's verdict for
// each candidate event, in stream order. Training events contribute no
// decision. The server applies the batch sequentially, so the result is
// bit-identical to sending the events one at a time. The returned
// slice is the caller's: the next call does not reuse it.
func (c *Client) Decide(events []engine.Event) ([]core.Decision, error) {
	c.batch = encodeBatch(c.batch, events)
	f, err := c.wc.Exchange(c.batch, opDecisions)
	if err != nil {
		return nil, err
	}
	// A batch yields at most one verdict per event.
	return decodeDecisions(f, make([]core.Decision, 0, len(events)))
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
