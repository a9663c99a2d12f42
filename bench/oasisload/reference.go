package main

import (
	"fmt"
	"io"
	"net"
	"time"
)

// reference is a fixed operation whose cost tracks the host's speed at
// the moment it runs: one 128-byte round trip over a loopback TCP
// connection to an echo goroutine in this process. It has the profile
// of the requests it is interleaved with — two writes, two reads, two
// wake-ups through the network poller, the kernel's loopback path — on
// the same CPU, but none of the program under test in it.
type reference struct {
	conn net.Conn
	ln   net.Listener
	buf  [128]byte
	done chan struct{}
}

func newReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ref := &reference{ln: ln, done: make(chan struct{})}
	go ref.echo()
	if ref.conn, err = net.DialTimeout("tcp", ln.Addr().String(), requestTimeout); err != nil {
		_ = ln.Close()
		<-ref.done
		return nil, err
	}
	return ref, nil
}

// echo serves the one connection until it closes.
func (ref *reference) echo() {
	defer close(ref.done)
	c, err := ref.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	var buf [128]byte
	for {
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			return
		}
		if _, err := c.Write(buf[:]); err != nil {
			return
		}
	}
}

// close stops the echo goroutine and waits for it.
func (ref *reference) close() {
	_ = ref.conn.Close()
	_ = ref.ln.Close()
	<-ref.done
}

// ping makes one round trip and returns how long it took.
func (ref *reference) ping() (time.Duration, error) {
	start := time.Now()
	if err := ref.conn.SetDeadline(start.Add(requestTimeout)); err != nil {
		return 0, err
	}
	if _, err := ref.conn.Write(ref.buf[:]); err != nil {
		return 0, fmt.Errorf("reference ping: %w", err)
	}
	if _, err := io.ReadFull(ref.conn, ref.buf[:]); err != nil {
		return 0, fmt.Errorf("reference ping: %w", err)
	}
	return time.Since(start), nil
}
