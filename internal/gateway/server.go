package gateway

import (
	"net"
	"net/http"
	"sync"
	"time"

	"oasis/internal/bus"
)

// Serve runs the gateway's HTTP server on ln until the listener
// closes. The listener is wrapped with the connection cap
// (Options.MaxConns), and the server enforces header/read/idle
// timeouts; the write timeout leaves room for the longest a handler can
// wait on a peer (a dial and a call, each one bus.CallDeadline).
func (g *Gateway) Serve(ln net.Listener) error {
	if g.opts.MaxConns > 0 {
		ln = limitListener(ln, g.opts.MaxConns)
	}
	srv := &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      2*bus.CallDeadline + 5*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// limitListener caps concurrent accepted connections: Accept blocks
// while the cap is reached, so the kernel's backlog — not gateway
// memory — absorbs the excess, and each connection releases its slot
// exactly once on Close.
func limitListener(ln net.Listener, max int) net.Listener {
	return &limitedListener{Listener: ln, slots: make(chan struct{}, max)}
}

type limitedListener struct {
	net.Listener
	slots chan struct{}
}

func (l *limitedListener) Accept() (net.Conn, error) {
	l.slots <- struct{}{}
	conn, err := l.Listener.Accept()
	if err != nil {
		<-l.slots
		return nil, err
	}
	return &limitedConn{Conn: conn, release: func() { <-l.slots }}, nil
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
