package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// The generator speaks HTTP/1.1 over raw keep-alive sockets with
// request bytes built ahead of the call and a parser that reads only
// the status code and Content-Length. net/http's client costs more per
// request than the gateway handler it would be measuring; this one
// costs a write, a read and two header scans, so a handler change of a
// few microseconds is not lost in the generator.

// maxResponseBody bounds one response body; the largest the gateway
// sends is a token response carrying a certificate, well under this.
const maxResponseBody = 1 << 20

// requestTimeout bounds one request end to end. A request that exceeds
// it is a counted failure, never a hang.
const requestTimeout = 5 * time.Second

var (
	errChunked    = errors.New("rawhttp: chunked response (the generator requires Content-Length)")
	errNoLength   = errors.New("rawhttp: response without Content-Length")
	errBadStatus  = errors.New("rawhttp: malformed status line")
	errBodyTooBig = errors.New("rawhttp: response body over the limit")
)

// httpConn is one keep-alive connection. It is used by one goroutine.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial gateway %s: %w", addr, err)
	}
	return &httpConn{conn: c, br: bufio.NewReaderSize(c, 8<<10)}, nil
}

func (h *httpConn) close() { _ = h.conn.Close() }

// do writes one pre-built request and reads one response. The returned
// body is valid until the next call. After an error the connection's
// framing is unknown, so it is closed; the caller redials.
func (h *httpConn) do(req []byte) (status int, body []byte, err error) {
	if err = h.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err = h.conn.Write(req); err != nil {
		h.close()
		return 0, nil, err
	}
	status, h.body, err = readResponse(h.br, h.body[:0])
	if err != nil {
		h.close()
		return 0, nil, err
	}
	return status, h.body, nil
}

// readResponse parses one HTTP/1.1 response from br, appending the
// body to buf. Only Content-Length framing is accepted: a chunked
// response or one delimited by connection close is an error, because
// waiting for either to end is how a load generator hangs.
func readResponse(br *bufio.Reader, buf []byte) (status int, body []byte, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, buf, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 14 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, buf, errBadStatus
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil || status < 100 {
		return 0, buf, errBadStatus
	}
	length := -1
	chunked := false
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, buf, err
		}
		if len(line) <= 2 { // "\r\n": end of headers
			break
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		switch {
		case asciiEqualFold(name, "content-length"):
			n, perr := strconv.Atoi(string(bytes.TrimSpace(val)))
			if perr != nil || n < 0 {
				return 0, buf, fmt.Errorf("rawhttp: bad Content-Length %q", val)
			}
			length = n
		case asciiEqualFold(name, "transfer-encoding"):
			chunked = true
		}
	}
	if chunked {
		return 0, buf, errChunked
	}
	if length < 0 {
		return 0, buf, errNoLength
	}
	if length > maxResponseBody {
		return 0, buf, errBodyTooBig
	}
	if cap(buf) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err = io.ReadFull(br, buf); err != nil {
		return 0, buf, err
	}
	return status, buf, nil
}

// asciiEqualFold reports whether b equals the lower-case ASCII string
// lower, ignoring case.
func asciiEqualFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// buildPost renders a complete POST request.
func buildPost(host, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, host, len(body))
	b.Write(body)
	return b.Bytes()
}

// tokenLen is the length of a gateway token: 128 bits in hex.
const tokenLen = 32

// tokenRequest is a pre-built {"token":"…"} POST whose token is
// overwritten in place per call — the body length never changes, so
// neither does the header.
type tokenRequest struct {
	buf []byte
	off int
}

func newTokenRequest(host, path string) *tokenRequest {
	placeholder := bytes.Repeat([]byte{'0'}, tokenLen)
	body := append(append([]byte(`{"token":"`), placeholder...), `"}`...)
	buf := buildPost(host, path, body)
	return &tokenRequest{buf: buf, off: len(buf) - tokenLen - 2}
}

// with returns the request bytes for the token; valid until the next
// call.
func (t *tokenRequest) with(token string) []byte {
	copy(t.buf[t.off:t.off+tokenLen], token)
	return t.buf
}

var (
	activePrefix    = []byte(`{"active":true`)
	inactiveBody    = []byte(`{"active":false}`)
	accessTokenKey  = []byte(`"access_token":"`)
	certKey         = []byte(`"cert":`)
	revokeOKBody    = []byte(`{"ok":true}`)
	errTokenMissing = errors.New("token response carries no access_token")
)

// extractToken returns the access_token of a token response without
// decoding the rest.
func extractToken(body []byte) (string, error) {
	i := bytes.Index(body, accessTokenKey)
	if i < 0 {
		return "", errTokenMissing
	}
	rest := body[i+len(accessTokenKey):]
	if len(rest) < tokenLen+1 || rest[tokenLen] != '"' {
		return "", errTokenMissing
	}
	return string(rest[:tokenLen]), nil
}

// extractCert returns the raw JSON of the "cert" member of a token
// response: the role membership certificate a client presents to
// another service. It is the last member, so it runs to the closing
// brace of the response.
func extractCert(body []byte) ([]byte, error) {
	i := bytes.LastIndex(body, certKey)
	if i < 0 {
		return nil, errors.New("token response carries no cert")
	}
	raw := bytes.TrimSpace(body[i+len(certKey):])
	if len(raw) < 3 || raw[len(raw)-1] != '}' {
		return nil, errors.New("token response: cert is not the last member")
	}
	return raw[:len(raw)-1], nil
}
