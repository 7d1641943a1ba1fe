package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/server"
)

// served is the server stack running in-process on a loopback listener,
// exactly as rlr-serve mounts it: server.New plus Handler() on an
// http.Server.
type served struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan error
}

func startServer(sc server.Config, tr *tracer) (*served, error) {
	srv, err := server.New(sc)
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
	}
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the HTTP server, waits for its accept loop to exit, and
// closes the service (which writes the final snapshot when one is
// configured).
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// collectionStats reads the /stats collection section over loopback.
func collectionStats(addr string) (collection.Stats, error) {
	p, err := dialPipe(addr)
	if err != nil {
		return collection.Stats{}, err
	}
	defer p.close()
	var body struct {
		Collection collection.Stats `json:"collection"`
	}
	if err := p.getJSON("/stats", &body); err != nil {
		return collection.Stats{}, fmt.Errorf("/stats: %w", err)
	}
	return body.Collection, nil
}
