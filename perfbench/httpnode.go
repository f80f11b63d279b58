package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// loopback is one HTTP server on 127.0.0.1 serving a mux.
type loopback struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its Serve goroutine to return.
// It closes connections outright: every result has been checked by then,
// and a graceful Shutdown would wait seconds for client connections that
// were dialed but never used.
func (l *loopback) close() {
	_ = l.srv.Close() // the only error is from closing an already-closed listener
	<-l.done
}

// newClient returns an HTTP client that keeps at most conns connections
// per host, so the client side of the benchmark stays within the host's
// two CPUs.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// httpError is a non-2xx reply.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// doJSON sends in (nil for no body) and decodes a 2xx reply into out.
func doJSON(c *http.Client, method, url string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, &httpError{code: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}
