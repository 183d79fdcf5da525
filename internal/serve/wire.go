package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dfdbg/internal/obs"
)

// maxLine caps one wire line in either direction. It must hold an
// "import" request or an "export" response carrying a base64 DFCK
// migration container (hundreds of KB for the case-study decoder).
const maxLine = 64 << 20

// newScanner returns a line scanner over r capped at limit bytes. The
// initial buffer must not exceed the cap, or the cap would be the
// buffer's size instead.
func newScanner(r io.Reader, limit int) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64*1024, limit)), limit)
	return sc
}

// Endpoint is the server end of one wire connection, shared by the
// worker (Server) and the routing tier: a reader handing requests to a
// handler in order, and a writer draining the outbound queues.
// Responses are never dropped; asynchronous events are queued with a
// bounded drop-oldest policy so one slow reader cannot stall a session
// or the server. The peer learns how many events it lost from a
// "dropped" notice sent ahead of the surviving events, the operator
// from the drop counter.
type Endpoint struct {
	conn     net.Conn
	queueLen int
	drops    *obs.Counter
	maxLine  int

	mu      sync.Mutex
	cond    *sync.Cond
	lines   [][]byte // hello, responses and goodbye: unbounded, never dropped
	events  [][]byte // async events, bounded, drop-oldest
	dropped uint64   // drops since the last "dropped" notice
	closed  bool
}

// NewEndpoint wraps conn. Events beyond queueLen drop oldest first and
// count on drops.
func NewEndpoint(conn net.Conn, queueLen int, drops *obs.Counter) *Endpoint {
	e := &Endpoint{conn: conn, queueLen: queueLen, drops: drops, maxLine: maxLine}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Serve greets the peer with a hello event carrying the protocol name,
// then hands each request line to handle, in order, until the
// connection ends. A malformed line is answered with a "bad request"
// response; a line over the cap ends the connection with a goodbye
// event naming the cap. Serve returns once the writer has flushed and
// closed the connection.
func (e *Endpoint) Serve(hello string, handle func(Request)) {
	// Hello is queued with the responses, which the writer sends first:
	// no response or event can overtake it.
	e.notice(Event{Event: "hello", Reason: hello})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.writer()
	}()

	sc := newScanner(e.conn, e.maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			e.Respond(Response{ID: req.ID, Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		handle(req)
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		e.notice(Event{Event: "goodbye", Reason: fmt.Sprintf("request line over the %d-byte limit", e.maxLine)})
	}
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
	<-done
}

// Close severs the connection; Serve then winds down.
func (e *Endpoint) Close() { e.conn.Close() }

// writer drains the outbound queues onto the connection: never-dropped
// lines first, then the drop notice, then the surviving events.
func (e *Endpoint) writer() {
	defer e.conn.Close()
	for {
		e.mu.Lock()
		for !e.closed && len(e.lines) == 0 && len(e.events) == 0 && e.dropped == 0 {
			e.cond.Wait()
		}
		batch := e.lines
		e.lines = nil
		if e.dropped > 0 {
			if b, err := json.Marshal(Event{Event: "dropped", Dropped: e.dropped}); err == nil {
				batch = append(batch, b)
			}
			e.dropped = 0
		}
		batch = append(batch, e.events...)
		e.events = nil
		closed := e.closed
		e.mu.Unlock()
		for _, b := range batch {
			if _, err := e.conn.Write(append(b, '\n')); err != nil {
				e.mu.Lock()
				e.closed = true
				e.mu.Unlock()
				return
			}
		}
		if closed {
			return
		}
	}
}

// Respond queues a response (never dropped).
func (e *Endpoint) Respond(r Response) {
	b, err := json.Marshal(r)
	if err != nil {
		b, _ = json.Marshal(Response{ID: r.ID, Error: fmt.Sprintf("marshal: %v", err)})
	}
	e.send(b)
}

// notice queues a connection-level event that must not be dropped.
func (e *Endpoint) notice(ev Event) {
	b, _ := json.Marshal(ev) // plain strings only: cannot fail
	e.send(b)
}

// send queues one never-dropped line.
func (e *Endpoint) send(b []byte) {
	e.mu.Lock()
	if !e.closed {
		e.lines = append(e.lines, b)
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// Deliver queues an async event with drop-oldest backpressure. It never
// blocks, so session goroutines and routers may call it directly.
func (e *Endpoint) Deliver(ev Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if len(e.events) >= e.queueLen {
		e.events = e.events[1:]
		e.dropped++
		e.drops.Inc()
	}
	e.events = append(e.events, b)
	e.mu.Unlock()
	e.cond.Broadcast()
}

// Client is the client end of one wire connection, shared by the
// routing tier's upstream connections, fleetcheck and the tests.
// Requests go out under connection-local ids and are matched to their
// responses; events go to the event handler in arrival order, on a
// goroutine of their own, so a handler that blocks (a migration holds
// the route's write lock) can never stall the response an export is
// waiting for on the same connection. The down handler likewise runs on
// its own goroutine: Close can be reached from a round trip that holds
// a route read lock.
type Client struct {
	conn    net.Conn
	onEvent func(*Client, Event)
	onDown  func(*Client, error)

	wmu sync.Mutex // serializes writes

	mu      sync.Mutex
	cond    *sync.Cond // wakes the event pump
	seq     int64
	pending map[int64]chan Response // nil once closed
	err     error                   // why the connection ended; set before down closes
	down    chan struct{}
	events  []Event // received, not yet handed to onEvent
}

// Dial connects to addr and starts a Client on the connection.
func Dial(addr string, timeout time.Duration, onEvent func(*Client, Event), onDown func(*Client, error)) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, onEvent, onDown), nil
}

// NewClient starts the client end on conn. onEvent receives the
// connection's events; onDown runs once when the connection ends.
// Either may be nil.
func NewClient(conn net.Conn, onEvent func(*Client, Event), onDown func(*Client, error)) *Client {
	c := &Client{
		conn:    conn,
		onEvent: onEvent,
		onDown:  onDown,
		pending: make(map[int64]chan Response),
		down:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.readLoop()
	go c.pump()
	return c
}

// Done is closed when the connection has ended.
func (c *Client) Done() <-chan struct{} { return c.down }

func (c *Client) readLoop() {
	sc := newScanner(c.conn, maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Event string `json:"event"`
		}
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		if probe.Event != "" {
			var ev Event
			if json.Unmarshal(line, &ev) == nil {
				c.mu.Lock()
				c.events = append(c.events, ev)
				c.mu.Unlock()
				c.cond.Signal()
			}
			continue
		}
		var resp Response
		if json.Unmarshal(line, &resp) != nil {
			continue
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	err := errors.New("serve: connection closed")
	if sc.Err() != nil {
		err = fmt.Errorf("serve: read: %w", sc.Err())
	}
	c.Close(err)
}

// pump runs onEvent for queued events, in arrival order, until the
// connection is down and the queue is empty.
func (c *Client) pump() {
	for {
		c.mu.Lock()
		for len(c.events) == 0 && c.pending != nil {
			c.cond.Wait()
		}
		batch := c.events
		c.events = nil
		c.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		for _, ev := range batch {
			if c.onEvent != nil {
				c.onEvent(c, ev)
			}
		}
	}
}

// Close tears the connection down, failing every in-flight round trip
// with err (nil means a plain local close). Idempotent; the first error
// wins.
func (c *Client) Close(err error) {
	if err == nil {
		err = errors.New("serve: client closed")
	}
	c.mu.Lock()
	if c.pending == nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	c.pending = nil
	close(c.down)
	c.mu.Unlock()
	c.cond.Broadcast()
	c.conn.Close()
	if c.onDown != nil {
		go c.onDown(c, err)
	}
}

// RoundTrip sends req under a fresh connection-local id and waits for
// its response. A positive timeout bounds the wait: a peer that cannot
// answer in time is treated as dead and the connection is closed. The
// error names the op and the session.
//
// A response that arrived before the connection ended, or before the
// deadline, wins over it: the read loop hands a response over before it
// closes down, so after down or the timer fires the reply channel is
// checked once more. Losing an export's reply that way would lose the
// session.
func (c *Client) RoundTrip(req Request, timeout time.Duration) (Response, error) {
	c.mu.Lock()
	if c.pending == nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, callErr(req, err)
	}
	c.seq++
	req.ID = c.seq
	ch := make(chan Response, 1)
	c.pending[req.ID] = ch
	c.mu.Unlock()

	b, _ := json.Marshal(req) // plain data: cannot fail
	c.wmu.Lock()
	_, err := c.conn.Write(append(b, '\n'))
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("serve: write: %w", err)
		c.Close(err)
		return Response{}, callErr(req, err)
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-c.down:
		err = c.err
	case <-expired:
		err = fmt.Errorf("serve: no response within %v", timeout)
		c.Close(err)
	}
	select {
	case resp := <-ch:
		return resp, nil
	default:
		return Response{}, callErr(req, err)
	}
}

// callErr names the request a round trip failed on.
func callErr(req Request, err error) error {
	if req.Session == "" {
		return fmt.Errorf("%s: %w", req.Op, err)
	}
	return fmt.Errorf("%s %s: %w", req.Op, req.Session, err)
}
