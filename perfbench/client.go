package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// pipeConn is a pipelined HTTP/1.1 client connection: requests are
// appended to one buffer, written with one syscall, and their responses
// read back in order. net/http's client cannot pipeline, and on a
// 2-core host its per-request goroutine handoffs would make the load
// generator, not the server, the bottleneck. The server answers the
// requests of one connection strictly in order, which is what makes the
// read-your-own-write checks of the fleet workload valid.
type pipeConn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	buf  []byte // requests not yet sent
	tmp  []byte // scratch for one request body or query string
	body []byte // body of the last response read
}

func dialPipe(addr string) (*pipeConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &pipeConn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: addr}, nil
}

func (p *pipeConn) close() { p.c.Close() }

func appendRect(b []byte, r geom.Rect) []byte {
	b = strconv.AppendFloat(b, r.MinX, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.MinY, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.MaxX, 'g', -1, 64)
	b = append(b, ',')
	return strconv.AppendFloat(b, r.MaxY, 'g', -1, 64)
}

// setBody renders the POST /set body for key at r. Keys are generated
// identifiers that need no JSON escaping.
func setBody(dst []byte, key string, r geom.Rect) []byte {
	dst = append(dst, `{"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","rect":[`...)
	dst = appendRect(dst, r)
	return append(dst, "]}"...)
}

// addSet queues POST /set {key, rect}.
func (p *pipeConn) addSet(key string, r geom.Rect) {
	p.tmp = setBody(p.tmp[:0], key, r)
	p.buf = append(p.buf, "POST /set HTTP/1.1\r\nHost: "...)
	p.buf = append(p.buf, p.host...)
	p.buf = append(p.buf, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	p.buf = strconv.AppendInt(p.buf, int64(len(p.tmp)), 10)
	p.buf = append(p.buf, "\r\n\r\n"...)
	p.buf = append(p.buf, p.tmp...)
}

// addWithin queues GET /within for window q; limit <= 0 leaves the page
// size to the server.
func (p *pipeConn) addWithin(q geom.Rect, limit int) {
	p.tmp = appendRect(append(p.tmp[:0], "/within?rect="...), q)
	if limit > 0 {
		p.tmp = strconv.AppendInt(append(p.tmp, "&limit="...), int64(limit), 10)
	}
	p.addGet(p.tmp)
}

// addKNN queues GET /knn for the k nearest objects to pt.
func (p *pipeConn) addKNN(pt geom.Point, k int) {
	p.tmp = append(p.tmp[:0], "/knn?point="...)
	p.tmp = strconv.AppendFloat(p.tmp, pt.X, 'g', -1, 64)
	p.tmp = append(p.tmp, ',')
	p.tmp = strconv.AppendFloat(p.tmp, pt.Y, 'g', -1, 64)
	p.tmp = strconv.AppendInt(append(p.tmp, "&k="...), int64(k), 10)
	p.addGet(p.tmp)
}

func (p *pipeConn) addGet(target []byte) {
	p.buf = append(p.buf, "GET "...)
	p.buf = append(p.buf, target...)
	p.buf = append(p.buf, " HTTP/1.1\r\nHost: "...)
	p.buf = append(p.buf, p.host...)
	p.buf = append(p.buf, "\r\n\r\n"...)
}

// send writes every queued request.
func (p *pipeConn) send() error {
	_, err := p.c.Write(p.buf)
	p.buf = p.buf[:0]
	return err
}

// read parses the next response: its status and body. The body is valid
// until the next read. Content-Length and chunked framing are both
// accepted, since the server streams large JSON bodies chunked.
func (p *pipeConn) read() (int, []byte, error) {
	line, err := p.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := p.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, _ := bytes.Cut(h, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	p.body = p.body[:0]
	switch {
	case chunked:
		err = p.readChunked()
	case length >= 0:
		p.body = grow(p.body, length)
		_, err = io.ReadFull(p.br, p.body)
	default:
		err = fmt.Errorf("response without Content-Length or chunked framing")
	}
	return status, p.body, err
}

func (p *pipeConn) readChunked() error {
	for {
		line, err := p.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			_, err := p.br.Discard(2) // the final CRLF; the server sends no trailers
			return err
		}
		n := len(p.body)
		p.body = grow(p.body, n+int(size))
		if _, err := io.ReadFull(p.br, p.body[n:]); err != nil {
			return err
		}
		if _, err := p.br.Discard(2); err != nil {
			return err
		}
	}
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n, 2*n)
		copy(nb, b)
		return nb
	}
	return b[:n]
}

// getJSON sends one GET and decodes its 200 response into v.
func (p *pipeConn) getJSON(target string, v any) error {
	p.addGet([]byte(target))
	if err := p.send(); err != nil {
		return err
	}
	status, body, err := p.read()
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: HTTP %d: %s", target, status, body)
	}
	return json.Unmarshal(body, v)
}
