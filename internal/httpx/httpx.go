// Package httpx implements the minimal HTTP/1.1 subset the streaming
// services need on top of internal/tcp: GET requests with optional
// Range headers, responses with Content-Length, and persistent
// connections carrying multiple request/response exchanges (Netflix
// and the iPad player reuse and churn connections, Section 5.2).
//
// Everything is event-driven: a server registers a Handler; a client
// issues requests on a ClientConn and receives header callbacks, then
// reads body bytes at its own pace — the pace IS the experiment.
package httpx

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tcp"
)

// Request is a parsed HTTP request.
type Request struct {
	Method  string
	Path    string
	Headers map[string]string
}

// ResolveRange resolves the request's Range header against a resource
// of size bytes. It supports the single-range grammar:
// "bytes=a-b" (end clamped to EOF), "bytes=a-" (open-ended) and
// "bytes=-n" (suffix: the last n bytes). hasRange is false when no
// Range header is present; ok is false when one is present but
// unsatisfiable (start at or past EOF, an end before the start, a
// malformed spec, or an empty suffix) — the 416 case.
func (r *Request) ResolveRange(size int64) (start, n int64, hasRange, ok bool) {
	h, present := r.Headers["range"]
	if !present {
		return 0, 0, false, false
	}
	first, last, found := strings.Cut(strings.TrimPrefix(h, "bytes="), "-")
	if !found {
		return 0, 0, true, false
	}
	if first == "" { // suffix: the last n bytes
		want, err := strconv.ParseInt(last, 10, 64)
		if err != nil || want <= 0 {
			return 0, 0, true, false
		}
		if want > size {
			want = size
		}
		if want == 0 { // empty resource: nothing to satisfy
			return 0, 0, true, false
		}
		return size - want, want, true, true
	}
	s, err := strconv.ParseInt(first, 10, 64)
	if err != nil || s >= size {
		return 0, 0, true, false
	}
	end := size - 1
	if last != "" {
		e, err := strconv.ParseInt(last, 10, 64)
		if err != nil || e < s {
			return 0, 0, true, false
		}
		if e < end {
			end = e
		}
	}
	return s, end - s + 1, true, true
}

// ResponseWriter lets a handler emit a response. The body may be
// written incrementally and from timer callbacks — that is how the
// YouTube server paces Flash videos.
type ResponseWriter interface {
	// WriteHeader sends the status line and headers. Content-Length
	// must be included in headers for the client to find the body end.
	WriteHeader(status int, headers map[string]string)
	// Write appends body bytes (retained, do not mutate).
	Write(p []byte)
	// WriteZero appends n zero body bytes (bulk media).
	WriteZero(n int)
	// Conn exposes the underlying connection for pacing decisions.
	Conn() *tcp.Conn
}

// Handler serves one request. Handlers may keep writing after
// returning (server-side pacing).
type Handler func(req *Request, w ResponseWriter)

// Server attaches a Handler to a tcp.Host port.
type Server struct {
	handler Handler
}

// NewServer registers the handler on host:port with the given TCP
// config and returns the server.
func NewServer(host *tcp.Host, port uint16, cfg tcp.Config, handler Handler) *Server {
	s := &Server{handler: handler}
	host.Listen(port, cfg, func(c *tcp.Conn) {
		sc := &serverConn{srv: s, conn: c}
		c.SetCallbacks(tcp.Callbacks{
			OnReadable:    sc.onReadable,
			OnRemoteClose: func() {},
		})
	})
	return s
}

type serverConn struct {
	srv  *Server
	conn *tcp.Conn
	buf  []byte
}

// onReadable accumulates request bytes and dispatches every complete
// (possibly pipelined) request to the handler.
func (sc *serverConn) onReadable() {
	tmp := make([]byte, 4096)
	for {
		n := sc.conn.Read(tmp)
		if n == 0 {
			break
		}
		sc.buf = append(sc.buf, tmp[:n]...)
	}
	for {
		idx := strings.Index(string(sc.buf), "\r\n\r\n")
		if idx < 0 {
			return
		}
		head := string(sc.buf[:idx])
		sc.buf = sc.buf[idx+4:]
		req, err := parseRequest(head)
		if err != nil {
			sc.conn.Abort()
			return
		}
		w := &responseWriter{conn: sc.conn}
		sc.srv.handler(req, w)
	}
}

func parseRequest(head string) (*Request, error) {
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("httpx: empty request")
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 3 {
		return nil, fmt.Errorf("httpx: bad request line %q", lines[0])
	}
	req := &Request{Method: parts[0], Path: parts[1], Headers: map[string]string{}}
	for _, ln := range lines[1:] {
		if k, v, ok := strings.Cut(ln, ":"); ok {
			req.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	return req, nil
}

type responseWriter struct {
	conn        *tcp.Conn
	wroteHeader bool
}

func (w *responseWriter) WriteHeader(status int, headers map[string]string) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, statusText(status))
	// Sorted key order keeps wire bytes identical across runs, which
	// the determinism tests rely on.
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, headers[k])
	}
	b.WriteString("\r\n")
	w.conn.Write([]byte(b.String()))
}

func (w *responseWriter) Write(p []byte) {
	if !w.wroteHeader {
		w.WriteHeader(200, map[string]string{"Content-Length": strconv.Itoa(len(p))})
	}
	w.conn.Write(p)
}

func (w *responseWriter) WriteZero(n int) {
	if !w.wroteHeader {
		w.WriteHeader(200, map[string]string{"Content-Length": strconv.Itoa(n)})
	}
	w.conn.WriteZero(n)
}

func (w *responseWriter) Conn() *tcp.Conn { return w.conn }

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 206:
		return "Partial Content"
	case 404:
		return "Not Found"
	case 416:
		return "Range Not Satisfiable"
	default:
		return "Status"
	}
}

// Response is a parsed response header.
type Response struct {
	Status        int
	Headers       map[string]string
	ContentLength int64
}

// ClientConn drives requests over one TCP connection. Body bytes are
// NOT auto-drained: the application reads them from Body()/conn at its
// own pace, which closes the receive window when it falls behind —
// the client-side throttling mechanism the paper attributes to IE and
// Chrome.
type ClientConn struct {
	Conn *tcp.Conn

	onResponse func(*Response)
	onBody     func(avail int)

	buf       []byte
	inBody    bool
	bodyLeft  int64
	connected bool
	queued    []string // requests issued before connect completes
}

// NewClientConn wraps an established-or-connecting tcp.Conn.
func NewClientConn(c *tcp.Conn) *ClientConn {
	cc := &ClientConn{Conn: c}
	c.SetCallbacks(tcp.Callbacks{
		OnConnected: func() {
			cc.connected = true
			for _, r := range cc.queued {
				c.Write([]byte(r))
			}
			cc.queued = nil
		},
		OnReadable:    cc.onReadable,
		OnRemoteClose: func() {},
	})
	return cc
}

// OnResponse registers the header callback (one per request).
func (cc *ClientConn) OnResponse(fn func(*Response)) { cc.onResponse = fn }

// OnBody registers a callback fired when body bytes are available;
// avail is the readable byte count. The callback decides how much to
// consume via ReadBody/DiscardBody.
func (cc *ClientConn) OnBody(fn func(avail int)) { cc.onBody = fn }

// Get issues a GET request. headers may be nil.
func (cc *ClientConn) Get(path string, headers map[string]string) {
	var b strings.Builder
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\nHost: media\r\n", path)
	// Headers are wire bytes: emit in sorted order so the request (and
	// everything downstream of it) is identical across replays.
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, headers[k])
	}
	b.WriteString("\r\n")
	if cc.connected {
		cc.Conn.Write([]byte(b.String()))
	} else {
		cc.queued = append(cc.queued, b.String())
	}
}

// BodyAvailable returns the readable body byte count.
func (cc *ClientConn) BodyAvailable() int {
	if !cc.inBody {
		return 0
	}
	n := cc.Conn.Buffered()
	if int64(n) > cc.bodyLeft {
		n = int(cc.bodyLeft)
	}
	return n
}

// BodyRemaining returns body bytes of the current response not yet
// consumed (including bytes not yet arrived).
func (cc *ClientConn) BodyRemaining() int64 {
	if !cc.inBody {
		return 0
	}
	return cc.bodyLeft
}

// ReadBody copies up to len(p) body bytes.
func (cc *ClientConn) ReadBody(p []byte) int {
	if !cc.inBody {
		return 0
	}
	if int64(len(p)) > cc.bodyLeft {
		p = p[:cc.bodyLeft]
	}
	n := cc.Conn.Read(p)
	cc.consume(n)
	return n
}

// DiscardBody consumes up to n body bytes without copying.
func (cc *ClientConn) DiscardBody(n int) int {
	if !cc.inBody {
		return 0
	}
	if int64(n) > cc.bodyLeft {
		n = int(cc.bodyLeft)
	}
	got := cc.Conn.Discard(n)
	cc.consume(got)
	return got
}

func (cc *ClientConn) consume(n int) {
	cc.bodyLeft -= int64(n)
	if cc.bodyLeft == 0 {
		cc.inBody = false
		// A pipelined next response may already be buffered.
		if cc.Conn.Buffered() > 0 {
			cc.onReadable()
		}
	}
}

func (cc *ClientConn) onReadable() {
	for {
		if cc.inBody {
			if cc.onBody != nil && cc.BodyAvailable() > 0 {
				cc.onBody(cc.BodyAvailable())
			}
			return
		}
		// Header mode: peek (never consume past the header boundary,
		// so body accounting stays exact), find the blank line, then
		// consume exactly the header bytes.
		probe := make([]byte, maxHeaderBytes)
		n := cc.Conn.Peek(probe)
		if n == 0 {
			return
		}
		idx := strings.Index(string(probe[:n]), "\r\n\r\n")
		if idx < 0 {
			if n >= maxHeaderBytes {
				cc.Conn.Abort() // unparseable response
			}
			return
		}
		head := make([]byte, idx+4)
		cc.Conn.Read(head)
		resp, err := parseResponse(string(head[:idx]))
		if err != nil {
			cc.Conn.Abort()
			return
		}
		cc.inBody = resp.ContentLength > 0
		cc.bodyLeft = resp.ContentLength
		if cc.onResponse != nil {
			cc.onResponse(resp)
		}
		if !cc.inBody && cc.Conn.Buffered() == 0 {
			return
		}
	}
}

// maxHeaderBytes bounds response headers.
const maxHeaderBytes = 4096

func parseResponse(head string) (*Response, error) {
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "HTTP/1.1 ") {
		return nil, fmt.Errorf("httpx: bad status line")
	}
	fields := strings.SplitN(lines[0], " ", 3)
	status, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("httpx: bad status %q", fields[1])
	}
	resp := &Response{Status: status, Headers: map[string]string{}}
	for _, ln := range lines[1:] {
		if k, v, ok := strings.Cut(ln, ":"); ok {
			resp.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	if cl, ok := resp.Headers["content-length"]; ok {
		resp.ContentLength, err = strconv.ParseInt(cl, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("httpx: bad content-length %q", cl)
		}
	}
	return resp, nil
}
