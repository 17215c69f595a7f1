package server

import (
	"bufio"
	"errors"
	"net"
	"sync"

	"kaminotx/internal/transport"
)

// Client is a pipelined KV protocol client. Send enqueues a request
// without waiting for earlier responses, so many operations can be in
// flight on one connection; the server answers in request order, and a
// background reader matches responses to calls positionally (verifying
// the echoed correlation id). Do is the one-shot convenience wrapper,
// and Get/Put/Delete/Scan/Count wrap Do for synchronous callers.
//
// Requests share socket writes: Send encodes into the connection's buffer
// and, when other calls are in flight, leaves the write to a flusher
// goroutine, which sends whatever has accumulated by the time it runs — a
// pipelined burst goes out in one write. A Send with nothing else in
// flight writes at once, since no company is coming.
//
// Send/Do may be called from any goroutine; calls are serialized
// internally.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	enc  *transport.KVEncoder

	mu     sync.Mutex // guards bw, enc, queue, nextID, err
	queue  []*Call    // FIFO of in-flight calls, request order
	nextID uint64
	err    error // sticky transport failure

	kick        chan struct{} // wakes the flusher; one pending kick covers every Send before it runs
	readerDone  chan struct{}
	flusherDone chan struct{}
}

// Call is one in-flight request. Done closes when Resp (or Err) is
// ready; Err reports a transport failure, while a server-side failure
// arrives as a non-OK Resp.Status (see Resp.Error).
type Call struct {
	Resp transport.KVResponse
	Err  error
	Done chan struct{}
	id   uint64
}

// Wait blocks for the response and folds both failure layers (transport
// and server status) into one error.
func (c *Call) Wait() (*transport.KVResponse, error) {
	<-c.Done
	if c.Err != nil {
		return nil, c.Err
	}
	if err := c.Resp.Error(); err != nil {
		return nil, err
	}
	return &c.Resp, nil
}

// Dial connects to a kaminod server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient speaks the KV protocol over an existing connection (which it
// now owns).
func NewClient(conn net.Conn) *Client {
	bw := bufio.NewWriter(conn)
	c := &Client{
		conn:        conn,
		bw:          bw,
		enc:         transport.NewKVEncoder(bw),
		kick:        make(chan struct{}, 1),
		readerDone:  make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	go c.readLoop()
	go c.flushLoop()
	return c
}

// readLoop matches the server's in-order response stream to the FIFO of
// in-flight calls.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	dec := transport.NewKVDecoder(bufio.NewReader(c.conn))
	for {
		var resp transport.KVResponse
		if err := dec.Response(&resp); err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.mu.Unlock()
			c.failAll(errors.New("kv client: response with no request in flight"))
			return
		}
		call := c.queue[0]
		c.queue = c.queue[1:]
		c.mu.Unlock()
		if call.id != resp.ID {
			call.Err = errors.New("kv client: response correlation id mismatch")
			close(call.Done)
			c.failAll(call.Err)
			return
		}
		call.Resp = resp
		close(call.Done)
	}
}

// flushLoop writes what Sends have buffered, once per kick, until the
// reader exits (the connection is closed or broken).
func (c *Client) flushLoop() {
	defer close(c.flusherDone)
	for {
		select {
		case <-c.kick:
		case <-c.readerDone:
			return
		}
		c.mu.Lock()
		err := c.bw.Flush()
		c.mu.Unlock()
		if err != nil {
			c.failAll(err)
			return
		}
	}
}

// failAll fails every in-flight call and poisons the client.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	queue := c.queue
	c.queue = nil
	c.mu.Unlock()
	c.conn.Close()
	for _, call := range queue {
		call.Err = err
		close(call.Done)
	}
}

// Send enqueues req on the pipeline and returns its in-flight Call. The
// request's ID field is assigned by the client.
func (c *Client) Send(req *transport.KVRequest) (*Call, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	call := &Call{Done: make(chan struct{}), id: req.ID}
	c.queue = append(c.queue, call)
	err := c.enc.Request(req)
	switch {
	case err != nil:
	case len(c.queue) == 1: // nothing else in flight, so no company is coming
		err = c.bw.Flush()
	default:
		select {
		case c.kick <- struct{}{}:
		default: // a kick is pending; its flush will carry this frame
		}
	}
	if err != nil {
		c.queue = c.queue[:len(c.queue)-1]
		c.mu.Unlock()
		if !errors.Is(err, transport.ErrKVFrameTooLarge) { // nothing was written
			c.failAll(err)
		}
		return nil, err
	}
	c.mu.Unlock()
	return call, nil
}

// Do sends req and waits for its response.
func (c *Client) Do(req *transport.KVRequest) (*transport.KVResponse, error) {
	call, err := c.Send(req)
	if err != nil {
		return nil, err
	}
	return call.Wait()
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.Do(&transport.KVRequest{Kind: transport.KVPing})
	return err
}

// Get reads key in tenant ("" = server default tenant).
func (c *Client) Get(tenant string, key uint64) ([]byte, bool, error) {
	resp, err := c.Do(&transport.KVRequest{Kind: transport.KVGet, Tenant: tenant, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// Put stores value under key in tenant, acknowledged after durable commit.
func (c *Client) Put(tenant string, key uint64, value []byte) error {
	_, err := c.Do(&transport.KVRequest{Kind: transport.KVPut, Tenant: tenant, Key: key, Value: value})
	return err
}

// Delete removes key in tenant, reporting whether it existed.
func (c *Client) Delete(tenant string, key uint64) (bool, error) {
	resp, err := c.Do(&transport.KVRequest{Kind: transport.KVDelete, Tenant: tenant, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Found, nil
}

// Scan returns up to max key/value pairs starting at key in tenant.
func (c *Client) Scan(tenant string, start uint64, max int) ([]uint64, [][]byte, error) {
	resp, err := c.Do(&transport.KVRequest{Kind: transport.KVScan, Tenant: tenant, Key: start, Max: max})
	if err != nil {
		return nil, nil, err
	}
	return resp.Keys, resp.Values, nil
}

// Count returns the tenant's key count.
func (c *Client) Count(tenant string) (int, error) {
	resp, err := c.Do(&transport.KVRequest{Kind: transport.KVCount, Tenant: tenant})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Close tears the connection down and fails any in-flight calls.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	<-c.flusherDone
	return err
}
