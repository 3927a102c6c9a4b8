package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loopback owns the harness's listeners: every server it starts binds
// 127.0.0.1:0, counts the request-body bytes it is sent, and is shut
// down and waited for by close.
type loopback struct {
	mu      sync.Mutex
	servers []*http.Server
	wg      sync.WaitGroup
	body    atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (l *loopback) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = countingBody{r.Body, &l.body}
		h.ServeHTTP(w, r)
	})}
	l.mu.Lock()
	l.servers = append(l.servers, srv)
	l.mu.Unlock()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// bodyBytes is the request-body bytes received so far.
func (l *loopback) bodyBytes() int64 { return l.body.Load() }

// close shuts every server down and waits for the serve goroutines.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	l.mu.Lock()
	servers := l.servers
	l.servers = nil
	l.mu.Unlock()
	for _, s := range servers {
		if err := s.Shutdown(ctx); err != nil {
			s.Close()
		}
	}
	l.wg.Wait()
}
