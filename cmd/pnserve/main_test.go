package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRunRejectsBadFlags covers the run() error paths that return
// before any listener opens, so no case binds a port.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"router with worker", []string{"-router", "-worker"}, "mutually exclusive"},
		{"non-numeric workers", []string{"-workers", "many"}, "invalid -workers"},
		{"zero workers", []string{"-workers", "0"}, "invalid -workers"},
		{"router worker without scheme", []string{"-router", "-workers", "http://127.0.0.1:1,127.0.0.1:2"}, "wants base URLs"},
		{"unknown flag", []string{"-no-such-flag"}, "not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
			}
		})
	}
}

// startServer serves a small standalone server through newHTTPServer
// and returns its address. Every timeout newHTTPServer set is divided
// by 300, so the tests wait milliseconds instead of minutes; one it
// left unset stays unset.
func startServer(t *testing.T) string {
	t.Helper()
	srv := serve.NewServer(serve.Config{
		Workers: 2, Queue: 8, CacheSize: 8,
		Deadline: 10 * time.Second, MaxDeadline: 30 * time.Second,
	})
	httpSrv := newHTTPServer("", srv.Handler())
	for _, d := range []*time.Duration{&httpSrv.ReadHeaderTimeout, &httpSrv.ReadTimeout,
		&httpSrv.WriteTimeout, &httpSrv.IdleTimeout} {
		*d /= 300
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	t.Cleanup(func() {
		httpSrv.Close()
		srv.Service().Drain()
	})
	return ln.Addr().String()
}

// TestStalledClientIsDropped: a client that sends part of a request and
// then stops sending loses its connection once its read deadline
// passes, instead of holding the connection and a goroutine until it
// hangs up.
func TestStalledClientIsDropped(t *testing.T) {
	addr := startServer(t)
	for _, c := range []struct{ name, sent string }{
		{"partial headers", "POST /analyze HTTP/1.1\r\nHost: pnserve\r\nContent-Ty"},
		{"partial body", "POST /analyze HTTP/1.1\r\nHost: pnserve\r\nContent-Type: application/json\r\n" +
			"Content-Length: 100\r\n\r\n{\"programs\":["},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, c.sent); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = io.Copy(io.Discard, conn)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("the server still held the stalled connection after 5s")
			}
		})
	}
}

// TestWatchOutlivesTimeouts: a /watch stream stays open past every
// connection timeout and still delivers the events of a later run.
func TestWatchOutlivesTimeouts(t *testing.T) {
	base := "http://" + startServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
	}()
	if hello := <-lines; !strings.Contains(hello, `"kind":"hello"`) {
		t.Fatalf("first line = %q, want the hello preamble", hello)
	}

	// Longer than every timeout newHTTPServer sets, as startServer
	// shortens them.
	time.Sleep(time.Second)

	run, err := http.NewRequest(http.MethodGet, base+"/run?scenario=stack-ret", nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Header.Set(serve.TraceHeader, "t-late")
	runResp, err := http.DefaultClient.Do(run)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, runResp.Body)
	runResp.Body.Close()
	for line := range lines {
		if strings.Contains(line, `"kind":"trace-end"`) {
			return
		}
	}
	t.Fatalf("the /watch stream ended before the late run's trace-end: %v", ctx.Err())
}
