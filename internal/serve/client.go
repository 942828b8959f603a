package serve

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snap"
)

// Client is one synchronous connection to a decision server: each call
// sends one frame and blocks for its response. Throughput comes from
// batching (Decide amortizes framing over the whole burst), not from
// pipelining, which keeps the client trivially correct. A Client is not
// goroutine-safe; give each stream its own.
type Client struct {
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	maxFrame int
}

// Dial connects to a server and leases the session for key. Reconnect
// with the same key to resume a trained filter; concurrent use of one
// key fails with ErrSessionBusy.
//
// The server frees a lease once it has stopped serving the connection
// that held it. When the server ends a stream itself, with a typed error
// frame, it frees the lease before sending the frame, so a reconnect
// right after that error is accepted. When the client drops the link
// (Close, or a broken connection), the server notices asynchronously,
// so a Dial with the same key right after the drop may still fail with
// ErrSessionBusy; that error is then retryable after a short wait.
func Dial(addr, key string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:     conn,
		br:       bufio.NewReader(conn),
		bw:       bufio.NewWriter(conn),
		maxFrame: DefaultMaxFrame,
	}
	hello, err := encodeHello(key)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := c.roundTrip(hello, opOK); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close severs the connection, releasing the session lease server-side
// once the server notices (see Dial).
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one frame and decodes the response header, expecting
// wantOp. An opErr response decodes into the typed *WireError it
// carries. Returns a decoder positioned after the op byte plus the
// frame length (for Len caps). The wantOp argument is the client's
// decode dispatch; ops passed here count as decoded for the wireproto
// analyzer.
//
//ppflint:wiredecode
func (c *Client) roundTrip(body []byte, wantOp uint8) (*responseFrame, error) {
	if err := writeFrame(c.bw, body); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := readFrame(c.br, c.maxFrame)
	if err != nil {
		return nil, err
	}
	w := snap.NewDecoder(resp)
	var op uint8
	w.Uint8(&op)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	if op == opErr {
		return nil, decodeError(w, len(resp))
	}
	if op != wantOp {
		return nil, fmt.Errorf("%w: response op 0x%02x, want 0x%02x", ErrBadFrame, op, wantOp)
	}
	// Hold responses to the same bound table the server enforces. The
	// client has no batch cap of its own, so the frame cap stands in;
	// fixed-size ops (opOK, opStatsRep) still get their tight bounds —
	// trailing garbage fails typed here even on paths that skip Finish.
	if b := boundFor(op, c.maxFrame, c.maxFrame); len(resp) > b {
		return nil, fmt.Errorf("%w: response op 0x%02x frame of %d bytes exceeds bound %d", ErrTooLarge, op, len(resp), b)
	}
	return &responseFrame{w: w, n: len(resp)}, nil
}

// responseFrame is a positioned response decoder.
type responseFrame struct {
	w *snap.Walker
	n int
}

// Decide streams a batch of events and returns the filter's verdict for
// each candidate event, in stream order. Training events contribute no
// decision. The server applies the batch sequentially, so the result is
// bit-identical to sending the events one at a time.
func (c *Client) Decide(events []engine.Event) ([]core.Decision, error) {
	body, err := encodeBatch(events)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(body, opDecisions)
	if err != nil {
		return nil, err
	}
	return decodeDecisions(resp.w, resp.n)
}

// Stats fetches the session's filter counters.
func (c *Client) Stats() (core.Stats, error) {
	body := mustBody(opStats, nil)
	resp, err := c.roundTrip(body, opStatsRep)
	if err != nil {
		return core.Stats{}, err
	}
	var st core.Stats
	st.SnapshotWalk(resp.w)
	if err := resp.w.Finish(); err != nil {
		return core.Stats{}, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return st, nil
}

// Snapshot fetches the session's self-validating snapshot blob, loadable
// into a local engine.Session via Restore.
func (c *Client) Snapshot() ([]byte, error) {
	body := mustBody(opSnapshot, nil)
	resp, err := c.roundTrip(body, opSnapRep)
	if err != nil {
		return nil, err
	}
	blob, err := decodeBytesField(resp.w, resp.n)
	if err != nil {
		return nil, err
	}
	if err := resp.w.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return blob, nil
}

// Reset returns the session to its freshly-created state.
func (c *Client) Reset() error {
	body := mustBody(opReset, nil)
	_, err := c.roundTrip(body, opOK)
	return err
}
