package server

import (
	"bufio"
	"fmt"
	"net"

	"discovery/internal/idspace"
	"discovery/internal/wire"
)

// Client is a discoverynode client over one TCP connection. It offers
// synchronous per-call helpers (Insert, Lookup, Delete, Stats) and a
// lower-level Send/Flush/Recv API for request pipelining. A Client is not
// safe for concurrent use; open one per goroutine.
type Client struct {
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	enc     []byte // encode scratch
	scratch []byte // frame-read scratch
	msg     wire.Msg
	nextID  uint64
}

// OriginAuto, passed as the origin of Insert/Lookup/Delete, lets the
// server pick the entry node deterministically from the key.
const OriginAuto = -1

// Dial connects to a discoverynode client listener.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection.
func NewClient(nc net.Conn) *Client {
	return &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 32<<10),
		bw: bufio.NewWriterSize(nc, 32<<10),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// wireOrigin translates the public origin convention (-1 = server picks)
// into the wire sentinel.
func wireOrigin(origin int) uint32 {
	if origin < 0 {
		return wire.OriginAuto
	}
	return uint32(origin)
}

// Send buffers one request frame, assigning and returning its reqID.
// Callers pipelining requests must eventually Flush and then Recv one
// response per send (responses may arrive out of order; match by reqID).
func (c *Client) Send(m *wire.Msg) (uint64, error) {
	c.nextID++
	m.ReqID = c.nextID
	frame, err := m.Append(c.enc[:0])
	if err != nil {
		return 0, err
	}
	c.enc = frame
	if _, err := c.bw.Write(frame); err != nil {
		return 0, err
	}
	return m.ReqID, nil
}

// Flush pushes buffered request frames to the socket.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads one response frame into m. The returned message's buffers
// are reused by the next Recv on this client.
func (c *Client) Recv(m *wire.Msg) error {
	body, err := wire.ReadFrame(c.br, &c.scratch)
	if err != nil {
		return err
	}
	return m.Decode(body)
}

// roundTrip sends one request, flushes, and reads its response into
// c.msg, enforcing reqID and type agreement.
func (c *Client) roundTrip(req *wire.Msg, want wire.Type) error {
	id, err := c.Send(req)
	if err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	if err := c.Recv(&c.msg); err != nil {
		return err
	}
	if c.msg.ReqID != id {
		return fmt.Errorf("client: response for request %d, want %d (pipelined sends must use Recv)", c.msg.ReqID, id)
	}
	if c.msg.Type == wire.TError {
		return fmt.Errorf("client: server error: %s", c.msg.ErrorText())
	}
	if c.msg.Type != want {
		return fmt.Errorf("client: response type %v, want %v", c.msg.Type, want)
	}
	return nil
}

// Insert publishes key with the given payload. origin may be OriginAuto.
func (c *Client) Insert(origin int, key idspace.ID, value []byte) (wire.InsertReply, error) {
	req := wire.Msg{Type: wire.TInsert, Key: key, Origin: wireOrigin(origin), Value: value}
	if err := c.roundTrip(&req, wire.TInsertOK); err != nil {
		return wire.InsertReply{}, err
	}
	return c.msg.Insert, nil
}

// Lookup queries key. origin may be OriginAuto.
func (c *Client) Lookup(origin int, key idspace.ID) (wire.LookupReply, error) {
	req := wire.Msg{Type: wire.TLookup, Key: key, Origin: wireOrigin(origin)}
	if err := c.roundTrip(&req, wire.TLookupOK); err != nil {
		return wire.LookupReply{}, err
	}
	return c.msg.Lookup, nil
}

// Delete removes origin's replicas of key, returning how many were
// removed.
func (c *Client) Delete(origin int, key idspace.ID) (int, error) {
	req := wire.Msg{Type: wire.TDelete, Key: key, Origin: wireOrigin(origin)}
	if err := c.roundTrip(&req, wire.TDeleteOK); err != nil {
		return 0, err
	}
	return int(c.msg.Deleted), nil
}

// Stats fetches the daemon's counter snapshot. The per-shard slice is
// copied, so the result outlives the next call.
func (c *Client) Stats() (wire.StatsReply, error) {
	req := wire.Msg{Type: wire.TStats}
	if err := c.roundTrip(&req, wire.TStatsOK); err != nil {
		return wire.StatsReply{}, err
	}
	st := c.msg.Stats
	st.ShardRequests = append([]uint64(nil), st.ShardRequests...)
	return st, nil
}
