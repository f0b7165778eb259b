package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"mobilebench/internal/server"
)

// requestTimeout bounds one HTTP request; a request past it is a failure.
const requestTimeout = 30 * time.Second

// served is an in-process server behind a loopback HTTP listener.
type served struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

// boot starts a server and checks that /readyz answers. The returned
// duration covers server.New and the listener; the readiness round trip is
// left out, as on a shared host its goroutine wake-ups cost more, and vary
// more, than the boot itself.
func boot(ctx context.Context, cfg server.Config) (*served, time.Duration, error) {
	t := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("booting the server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return nil, 0, fmt.Errorf("listening: %w", err)
	}
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		// At most two connections: the load is sized for two CPUs.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}},
		done:   make(chan error, 1),
	}
	d := time.Since(t)
	go func() { s.done <- s.hs.Serve(ln) }()
	status, _, err := s.do(ctx, http.MethodGet, "/readyz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("readyz answered %d", status)
	}
	if err != nil {
		_ = s.close(ctx)
		return nil, 0, err
	}
	return s, d, nil
}

// close stops the listener, then drains the server, and waits for both.
func (s *served) close(ctx context.Context) error {
	s.client.CloseIdleConnections()
	herr := s.hs.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	return errors.Join(herr, s.srv.Shutdown(ctx))
}

// do sends one request and returns the status and body.
func (s *served) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// refused reports a load-shedding answer.
func refused(status int) bool {
	return status == http.StatusTooManyRequests || status >= http.StatusInternalServerError
}
