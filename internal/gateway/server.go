package gateway

import (
	"log"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
)

// serveBounds are the four bounds a slow or silent client meets, the
// same on the loop and on the net/http fallback. The loop arms a bound
// lazily where it can: an idle connection or a blocked response write
// is closed one to two bounds after it began, never sooner than one.
type serveBounds struct {
	head    time.Duration // a request head, from its first byte (the first, from the accept)
	request time.Duration // a whole request, head and body, from the same instant
	write   time.Duration // a response: room for the longest a handler can wait on a peer, a dial and a call
	idle    time.Duration // between a response and the next request
}

var defaultBounds = serveBounds{
	head:    5 * time.Second,
	request: 15 * time.Second,
	write:   2*bus.CallDeadline + 5*time.Second,
	idle:    2 * time.Minute,
}

// Serve runs the gateway's HTTP/1.1 server on ln until the listener
// closes. The listener is wrapped with the connection cap
// (Options.MaxConns). Each connection gets one goroutine running the
// serving loop (conn.go), which hands it to one http.Server, with the
// same routes (through Handler) and bounds, at the first request it does
// not recognise.
// Temporary accept errors are retried as net/http retries them.
func (g *Gateway) Serve(ln net.Listener) error {
	if g.opts.MaxConns > 0 {
		ln = limitListener(ln, g.opts.MaxConns)
	}
	s := g.server()
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("http: Accept error: %v; retrying in %v", err, delay)
				<-clock.Real().After(delay)
				continue
			}
			return err
		}
		delay = 0
		go s.serveConn(nc)
	}
}

// server builds the loop's configuration and its fallback.
func (g *Gateway) server() *server {
	b := g.bounds
	srv := &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: b.head,
		ReadTimeout:       b.request,
		WriteTimeout:      b.write,
		IdleTimeout:       b.idle,
	}
	return &server{
		route:  g.route,
		bounds: b,
		// Serve returns once the one connection is accepted and its
		// goroutine started; that goroutine keeps it until it closes.
		fallback: func(nc net.Conn) { _ = srv.Serve(&handoffListener{conn: nc}) },
		vars:     &g.vars,
	}
}

// handoffListener yields one connection, then reports itself closed.
type handoffListener struct {
	conn net.Conn
	addr net.Addr
}

func (l *handoffListener) Accept() (net.Conn, error) {
	if l.conn == nil {
		return nil, net.ErrClosed
	}
	c := l.conn
	l.addr, l.conn = c.LocalAddr(), nil
	return c, nil
}

func (l *handoffListener) Close() error   { return nil }
func (l *handoffListener) Addr() net.Addr { return l.addr }

// limitListener caps concurrent accepted connections: Accept blocks
// while the cap is reached, so the kernel's backlog — not gateway
// memory — absorbs the excess, and each connection releases its slot
// exactly once on Close, whichever server closes it.
func limitListener(ln net.Listener, max int) net.Listener {
	return &limitedListener{Listener: ln, slots: make(chan struct{}, max)}
}

type limitedListener struct {
	net.Listener
	slots chan struct{}
}

// closeProbe is how often a listener waiting at the cap checks whether
// it was closed.
const closeProbe = 100 * time.Millisecond

func (l *limitedListener) Accept() (net.Conn, error) {
	if err := l.acquire(); err != nil {
		return nil, err
	}
	conn, err := l.Listener.Accept()
	if err != nil {
		<-l.slots
		return nil, err
	}
	return &limitedConn{Conn: conn, release: func() { <-l.slots }}, nil
}

// acquire takes a slot, waiting for one while the cap is reached. The
// wait ends early if the listener closes: its descriptor reports
// closure without accepting anything, so it is probed every closeProbe
// — a listener without one waits for a slot, and Accept then reports
// the closure.
func (l *limitedListener) acquire() error {
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	var raw syscall.RawConn
	if sc, ok := l.Listener.(syscall.Conn); ok {
		raw, _ = sc.SyscallConn()
	}
	if raw == nil {
		l.slots <- struct{}{}
		return nil
	}
	for {
		select {
		case l.slots <- struct{}{}:
			return nil
		case <-clock.Real().After(closeProbe):
			if err := raw.Control(func(uintptr) {}); err != nil {
				return &net.OpError{Op: "accept", Net: l.Addr().Network(), Addr: l.Addr(), Err: err}
			}
		}
	}
}

type limitedConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (c *limitedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}
