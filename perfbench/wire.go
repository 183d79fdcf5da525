package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"dfdbg/internal/serve"
)

// wireTimeout bounds every round trip: a response that has not arrived
// by then counts as dropped.
const wireTimeout = 60 * time.Second

// wireClient speaks the newline-delimited JSON protocol of dfserve and
// dfrouter over one connection, one request at a time. Asynchronous
// events interleave with responses and are skipped.
type wireClient struct {
	conn net.Conn
	enc  *json.Encoder
	sc   *bufio.Scanner
	id   int64
}

func dialWire(addr string) (*wireClient, error) {
	conn, err := net.DialTimeout("tcp", addr, wireTimeout)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<26)
	return &wireClient{conn: conn, enc: json.NewEncoder(conn), sc: sc}, nil
}

// wireMsg is either a Response or an Event; Event is set only on events.
type wireMsg struct {
	serve.Response
	Event string `json:"event"`
}

// call sends req and waits for its response. A protocol-level refusal
// (OK false) is returned as a response, not an error.
func (c *wireClient) call(req serve.Request) (serve.Response, error) {
	c.id++
	req.ID = c.id
	if err := c.conn.SetDeadline(time.Now().Add(wireTimeout)); err != nil {
		return serve.Response{}, err
	}
	if err := c.enc.Encode(req); err != nil {
		return serve.Response{}, fmt.Errorf("%s: send: %w", req.Op, err)
	}
	for c.sc.Scan() {
		var m wireMsg
		if err := json.Unmarshal(c.sc.Bytes(), &m); err != nil {
			return serve.Response{}, fmt.Errorf("%s: decode: %w", req.Op, err)
		}
		if m.Event != "" {
			continue
		}
		if m.ID != req.ID {
			return serve.Response{}, fmt.Errorf("%s: response id %d, want %d", req.Op, m.ID, req.ID)
		}
		return m.Response, nil
	}
	err := c.sc.Err()
	if err == nil {
		err = fmt.Errorf("connection closed")
	}
	return serve.Response{}, fmt.Errorf("%s: response dropped: %w", req.Op, err)
}

// must is call with a refusal turned into an error.
func (c *wireClient) must(req serve.Request) (serve.Response, error) {
	r, err := c.call(req)
	if err == nil && !r.OK {
		err = fmt.Errorf("%s refused: %s", req.Op, r.Error)
	}
	return r, err
}

func (c *wireClient) close() { _ = c.conn.Close() }
