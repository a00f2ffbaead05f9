package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// env is one running schedd: the real internal/server handler with the
// default configuration, served on a loopback listener in this process,
// plus the HTTP client the workload drives it with.
type env struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

// startServer starts schedd on 127.0.0.1 with server.Config{}. conns
// bounds the client's connections to the number of client goroutines.
func startServer(conns int) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	e := &env{
		srv:    server.New(server.Config{}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns + 1, // +1: a dropped session stream and its replacement overlap
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	e.hs = &http.Server{Handler: e.srv}
	go func() {
		defer close(e.served)
		if err := e.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "schedbench: serve:", err)
		}
	}()
	return e, nil
}

// close drains sessions, shuts the HTTP server down and waits for it.
func (e *env) close() {
	e.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	cancel()
	<-e.served
	e.client.CloseIdleConnections()
}

// body is a pre-encoded request body held as parts, so requests that
// share a link list share its encoding instead of copying it.
type body [][]byte

func (b body) size() int {
	n := 0
	for _, p := range b {
		n += len(p)
	}
	return n
}

func (b body) reader() io.Reader {
	rs := make([]io.Reader, len(b))
	for i, p := range b {
		rs[i] = bytes.NewReader(p)
	}
	return io.MultiReader(rs...)
}

func (b body) bytes() []byte {
	out := make([]byte, 0, b.size())
	for _, p := range b {
		out = append(out, p...)
	}
	return out
}

// reply is one completed HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	header http.Header
}

// post sends b to path and reads the whole response.
func (e *env) post(path string, b body) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, e.base+path, b.reader())
	if err != nil {
		return reply{}, err
	}
	req.ContentLength = int64(b.size())
	req.Header.Set("Content-Type", "application/json")
	return e.do(req)
}

func (e *env) get(path string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, e.base+path, nil)
	if err != nil {
		return reply{}, err
	}
	return e.do(req)
}

func (e *env) do(req *http.Request) (reply, error) {
	resp, err := e.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading response: %w", req.Method, req.URL.Path, err)
	}
	return reply{status: resp.StatusCode, body: data, header: resp.Header}, nil
}

// scrape reads the Prometheus /metrics export and sums every series
// of each metric name over its labels. Server counters are read from
// this export only.
func (e *env) scrape() (map[string]float64, error) {
	r, err := e.get("/metrics")
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
