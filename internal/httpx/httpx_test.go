package httpx

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

type world struct {
	sch            *sim.Scheduler
	client, server *tcp.Host
}

func newWorld(seed int64) *world {
	sch := sim.NewScheduler(seed)
	client := tcp.NewHost(sch, 10, 0, 0, 1)
	server := tcp.NewHost(sch, 203, 0, 113, 10)
	prof := netem.Profile{Name: "t", Down: 20 * netem.Mbps, Up: 20 * netem.Mbps, RTT: 20 * time.Millisecond}
	path := netem.NewPath(sch, prof, client, server)
	client.SetLink(path.Up)
	server.SetLink(path.Down)
	return &world{sch: sch, client: client, server: server}
}

func (w *world) dial() *ClientConn {
	c := w.client.Dial(tcp.Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
	return NewClientConn(c)
}

func TestSimpleGET(t *testing.T) {
	w := newWorld(1)
	var gotPath string
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		gotPath = req.Path
		rw.WriteHeader(200, map[string]string{"Content-Length": "5", "Content-Type": "video/flv"})
		rw.Write([]byte("ABCDE"))
	})
	cc := w.dial()
	var resp *Response
	body := make([]byte, 0, 8)
	cc.OnResponse(func(r *Response) { resp = r })
	cc.OnBody(func(avail int) {
		buf := make([]byte, avail)
		n := cc.ReadBody(buf)
		body = append(body, buf[:n]...)
	})
	cc.Get("/video/42", map[string]string{"User-Agent": "sim"})
	w.sch.RunUntil(2 * time.Second)
	if gotPath != "/video/42" {
		t.Fatalf("server saw path %q", gotPath)
	}
	if resp == nil || resp.Status != 200 {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Headers["content-type"] != "video/flv" {
		t.Fatalf("headers = %v", resp.Headers)
	}
	if string(body) != "ABCDE" {
		t.Fatalf("body = %q", body)
	}
}

func TestLargeZeroBody(t *testing.T) {
	w := newWorld(2)
	const size = 3 << 20
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		rw.WriteHeader(200, map[string]string{"Content-Length": strconv.Itoa(size)})
		rw.WriteZero(size)
	})
	cc := w.dial()
	got := 0
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get("/big", nil)
	w.sch.RunUntil(30 * time.Second)
	if got != size {
		t.Fatalf("received %d, want %d", got, size)
	}
	if cc.BodyRemaining() != 0 {
		t.Fatalf("BodyRemaining = %d", cc.BodyRemaining())
	}
}

func TestRangeRequests(t *testing.T) {
	w := newWorld(3)
	const fileSize = int64(1 << 20)
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		_, n, has, ok := req.ResolveRange(fileSize)
		if !has || !ok {
			t.Errorf("no satisfiable range header in %v", req.Headers)
			return
		}
		rw.WriteHeader(206, map[string]string{"Content-Length": strconv.FormatInt(n, 10)})
		rw.WriteZero(int(n))
	})
	cc := w.dial()
	var statuses []int
	got := 0
	cc.OnResponse(func(r *Response) { statuses = append(statuses, r.Status) })
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get("/f", map[string]string{"Range": "bytes=0-65535"})
	w.sch.RunUntil(5 * time.Second)
	cc.Get("/f", map[string]string{"Range": "bytes=65536-131071"})
	w.sch.RunUntil(10 * time.Second)
	if len(statuses) != 2 || statuses[0] != 206 || statuses[1] != 206 {
		t.Fatalf("statuses = %v", statuses)
	}
	if got != 128<<10 {
		t.Fatalf("got %d body bytes, want %d", got, 128<<10)
	}
}

func TestResolveRange(t *testing.T) {
	const size = 1000
	cases := []struct {
		in       string
		start, n int64
		has, ok  bool
	}{
		{"bytes=0-99", 0, 100, true, true},
		{"bytes=900-", 900, 100, true, true},
		{"bytes=0-", 0, 1000, true, true},
		// End past EOF clamps to the last byte.
		{"bytes=990-5000", 990, 10, true, true},
		{"bytes=0-999999", 0, 1000, true, true},
		// Suffix ranges.
		{"bytes=-100", 900, 100, true, true},
		{"bytes=-1", 999, 1, true, true},
		// Suffix longer than the resource clamps to the whole file.
		{"bytes=-5000", 0, 1000, true, true},
		// Unsatisfiable: start at/past EOF, inverted, malformed, empty
		// suffix.
		{"bytes=1000-", 0, 0, true, false},
		{"bytes=5000-6000", 0, 0, true, false},
		{"bytes=5-4", 0, 0, true, false},
		{"bytes=5--3", 0, 0, true, false},
		{"bytes=-0", 0, 0, true, false},
		{"bytes=abc-def", 0, 0, true, false},
		{"junk", 0, 0, true, false},
		{"bytes=--5", 0, 0, true, false},
	}
	for _, c := range cases {
		r := &Request{Headers: map[string]string{"range": c.in}}
		start, n, has, ok := r.ResolveRange(size)
		if has != c.has || ok != c.ok || (ok && (start != c.start || n != c.n)) {
			t.Errorf("ResolveRange(%q) = %d,%d,%v,%v; want %d,%d,%v,%v",
				c.in, start, n, has, ok, c.start, c.n, c.has, c.ok)
		}
	}
	// No header at all.
	r := &Request{Headers: map[string]string{}}
	if _, _, has, _ := r.ResolveRange(size); has {
		t.Error("missing header must report hasRange=false")
	}
	// A zero-length resource satisfies nothing.
	r = &Request{Headers: map[string]string{"range": "bytes=0-"}}
	if _, _, _, ok := r.ResolveRange(0); ok {
		t.Error("empty resource must be unsatisfiable")
	}
	r = &Request{Headers: map[string]string{"range": "bytes=-10"}}
	if _, _, _, ok := r.ResolveRange(0); ok {
		t.Error("suffix on empty resource must be unsatisfiable")
	}
}

func TestZeroLengthBody(t *testing.T) {
	// A Content-Length: 0 response (the 404/416 shape) must complete
	// without a body phase and leave the connection usable for the
	// next exchange.
	w := newWorld(7)
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		if req.Path == "/empty" {
			rw.WriteHeader(416, map[string]string{"Content-Length": "0"})
			return
		}
		rw.WriteHeader(200, map[string]string{"Content-Length": "3"})
		rw.Write([]byte("abc"))
	})
	cc := w.dial()
	var statuses []int
	got := 0
	cc.OnResponse(func(r *Response) { statuses = append(statuses, r.Status) })
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get("/empty", map[string]string{"Range": "bytes=5000-"})
	w.sch.RunUntil(2 * time.Second)
	cc.Get("/next", nil)
	w.sch.RunUntil(4 * time.Second)
	if len(statuses) != 2 || statuses[0] != 416 || statuses[1] != 200 {
		t.Fatalf("statuses = %v", statuses)
	}
	if got != 3 {
		t.Fatalf("body bytes = %d, want 3", got)
	}
	if cc.BodyRemaining() != 0 {
		t.Fatalf("BodyRemaining = %d", cc.BodyRemaining())
	}
}

func TestPipelinedSequentialRequests(t *testing.T) {
	// Two requests on one connection where responses arrive back to
	// back; the client must delimit them via Content-Length.
	w := newWorld(4)
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		n, _ := strconv.Atoi(req.Path[1:])
		rw.WriteHeader(200, map[string]string{"Content-Length": strconv.Itoa(n)})
		rw.WriteZero(n)
	})
	cc := w.dial()
	var sizes []int64
	got := 0
	cc.OnResponse(func(r *Response) { sizes = append(sizes, r.ContentLength) })
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get("/1000", nil)
	cc.Get("/2000", nil) // pipelined immediately
	w.sch.RunUntil(5 * time.Second)
	if len(sizes) != 2 || sizes[0] != 1000 || sizes[1] != 2000 {
		t.Fatalf("sizes = %v", sizes)
	}
	if got != 3000 {
		t.Fatalf("got %d, want 3000", got)
	}
}

func TestSlowReaderClosesWindow(t *testing.T) {
	// The client never drains the body: the transfer must stall after
	// filling the receive buffer — the foundation of pull pacing.
	w := newWorld(5)
	const size = 4 << 20
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		rw.WriteHeader(200, map[string]string{"Content-Length": strconv.Itoa(size)})
		rw.WriteZero(size)
	})
	c := w.client.Dial(tcp.Config{RecvBuf: 128 << 10}, packet.EP(203, 0, 113, 10, 80))
	cc := NewClientConn(c)
	cc.Get("/big", nil)
	w.sch.RunUntil(3 * time.Second)
	buffered := cc.Conn.Buffered()
	if buffered == 0 || buffered > 128<<10 {
		t.Fatalf("buffered = %d, want (0, 128KiB]", buffered)
	}
	w.sch.RunUntil(6 * time.Second)
	if cc.Conn.Buffered() != buffered {
		t.Fatal("transfer did not stall with a full receive buffer")
	}
	// Now drain; it must complete.
	got := 0
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	var drain func()
	drain = func() {
		got += cc.DiscardBody(1 << 30)
		if got < size {
			w.sch.After(50*time.Millisecond, drain)
		}
	}
	w.sch.After(0, drain)
	w.sch.RunUntil(60 * time.Second)
	if got != size {
		t.Fatalf("drained %d/%d", got, size)
	}
}

func TestBadRequestAborts(t *testing.T) {
	w := newWorld(6)
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {})
	c := w.client.Dial(tcp.Config{}, packet.EP(203, 0, 113, 10, 80))
	closed := false
	c.SetCallbacks(tcp.Callbacks{
		OnConnected: func() { c.Write([]byte("NONSENSE\r\n\r\n")) },
		OnClosed:    func() { closed = true },
	})
	w.sch.RunUntil(2 * time.Second)
	if !closed {
		t.Fatal("malformed request should reset the connection")
	}
}

func TestParseRequestHeaders(t *testing.T) {
	req, err := parseRequest("GET /x HTTP/1.1\r\nHost: media\r\nRange: bytes=0-5\r\nX-Thing:  padded  ")
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/x" {
		t.Fatalf("req = %+v", req)
	}
	if req.Headers["x-thing"] != "padded" {
		t.Fatalf("headers = %v", req.Headers)
	}
	if _, err := parseRequest("BROKEN"); err == nil {
		t.Fatal("bad request line must error")
	}
}

func TestParseResponseErrors(t *testing.T) {
	if _, err := parseResponse("HTTP/1.1 abc OK"); err == nil {
		t.Fatal("bad status must error")
	}
	if _, err := parseResponse("SPDY/3 200 OK"); err == nil {
		t.Fatal("bad proto must error")
	}
	if _, err := parseResponse("HTTP/1.1 200 OK\r\nContent-Length: xyz"); err == nil {
		t.Fatal("bad content-length must error")
	}
	r, err := parseResponse("HTTP/1.1 206 Partial Content\r\nContent-Length: 42")
	if err != nil || r.Status != 206 || r.ContentLength != 42 {
		t.Fatalf("parse = %+v, %v", r, err)
	}
}
