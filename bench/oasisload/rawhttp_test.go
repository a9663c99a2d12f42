package main

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, raw string) (int, string, error) {
	t.Helper()
	status, body, err := readResponse(bufio.NewReader(strings.NewReader(raw)), nil)
	return status, string(body), err
}

func TestReadResponse(t *testing.T) {
	status, body, err := parse(t, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Wed, 30 Sep 2026 17:00:03 GMT\r\nContent-Length: 16\r\n\r\n{\"active\":false}NEXT")
	if err != nil || status != 200 || body != `{"active":false}` {
		t.Errorf("got %d %q %v", status, body, err)
	}
	// Header names are case-insensitive; an empty body is a body.
	status, body, err = parse(t, "HTTP/1.1 503 Service Unavailable\r\nretry-after: 2\r\ncontent-length: 0\r\n\r\n")
	if err != nil || status != 503 || body != "" {
		t.Errorf("got %d %q %v", status, body, err)
	}
	status, _, err = parse(t, "HTTP/1.1 429 Too Many Requests\r\nCONTENT-LENGTH:  2 \r\n\r\n{}")
	if err != nil || status != 429 {
		t.Errorf("got %d %v", status, err)
	}
}

func TestReadResponseRefusesWhatItCannotFrame(t *testing.T) {
	for _, tc := range []struct {
		name, raw string
		want      error
	}{
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n{\"active\":false}\r\n0\r\n\r\n", errChunked},
		{"chunked with a length too", "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\nabc", errChunked},
		{"no length", "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"active\":false}", errNoLength},
		{"not http", "SSH-2.0-OpenSSH_9.6\r\n", errBadStatus},
		{"short status line", "HTTP/1.1 2\r\n", errBadStatus},
		{"huge body", "HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n", errBodyTooBig},
	} {
		if _, _, err := parse(t, tc.raw); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, _, err := parse(t, "HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n"); err == nil {
		t.Error("negative Content-Length accepted")
	}
	if _, _, err := parse(t, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"); err == nil {
		t.Error("truncated body accepted")
	}
}

// A response with no Content-Length on a connection the server keeps
// open must fail at once, not wait for a body that is delimited only by
// a close that never comes.
func TestMissingLengthDoesNotHang(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		_, _ = server.Write([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"active\":"))
		// ... and the server goes quiet, holding the connection open.
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := readResponse(bufio.NewReader(client), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errNoLength) {
			t.Errorf("err = %v, want %v", err, errNoLength)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("readResponse is waiting for a body it cannot frame")
	}
}

func TestTokenRequestRewritesInPlace(t *testing.T) {
	req := newTokenRequest("127.0.0.1:9", "/v1/introspect")
	a := string(req.with("0123456789abcdef0123456789abcdef"))
	if !strings.HasSuffix(a, `{"token":"0123456789abcdef0123456789abcdef"}`) || !strings.Contains(a, "Content-Length: 44\r\n") {
		t.Errorf("request: %q", a)
	}
	b := string(req.with("ffffffffffffffffffffffffffffffff"))
	if len(a) != len(b) || !strings.HasSuffix(b, `{"token":"ffffffffffffffffffffffffffffffff"}`) {
		t.Errorf("rewritten request: %q", b)
	}
}

func TestExtractTokenAndCert(t *testing.T) {
	resp := []byte(`{"access_token":"0123456789abcdef0123456789abcdef","token_type":"oasis","issuer":"Login","rolefile":"main","roles":["LoggedOn"],"args":[],"cert":{"Service":"Login","Args":[{"S":"u"}],"Sig":"AAAA"}}` + "\n")
	tok, err := extractToken(resp)
	if err != nil || tok != "0123456789abcdef0123456789abcdef" {
		t.Errorf("token %q, %v", tok, err)
	}
	raw, err := extractCert(resp)
	if err != nil || string(raw) != `{"Service":"Login","Args":[{"S":"u"}],"Sig":"AAAA"}` {
		t.Errorf("cert %q, %v", raw, err)
	}
	if _, err := extractToken([]byte(`{"error":"invalid_grant"}`)); err == nil {
		t.Error("token found in an error response")
	}
	if _, err := extractToken([]byte(`{"access_token":"short"}`)); err == nil {
		t.Error("short token accepted")
	}
	if _, err := extractCert([]byte(`{"access_token":"x"}`)); err == nil {
		t.Error("cert found where there is none")
	}
}
