package cli

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Daemon is the skeleton the serving tiers share: listen, serve, and when
// ctx ends run the tier's own drain.
type Daemon struct {
	// Addr is the listen address; port 0 picks a free one.
	Addr    string
	Handler http.Handler
	// Started runs once the listener is bound, with the address it bound:
	// where the tier prints its "serving on" line.
	Started func(bound string)
	// DrainTimeout bounds the drain's context.
	DrainTimeout time.Duration
	// Drain is what makes stopping this tier safe, and the order is the
	// tier's: policyd releases its long-polls and then shuts down, replayd
	// shuts down and then flushes its ingest queue, the gateway answers
	// what it accepted and then stops listening. ctx expires at
	// DrainTimeout or on a second signal. shutdown stops the listener and
	// waits under ctx for in-flight requests; when ctx expires first it
	// closes their connections and returns the error. Whatever Drain does
	// that takes no context (a flush that must finish) is not cut short:
	// Run returns when Drain does.
	Drain func(ctx context.Context, shutdown func() error)
}

// Run serves until ctx is done, drains, and returns the exit code.
func (d Daemon) Run(ctx context.Context, stderr io.Writer) int {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	hs := &http.Server{Handler: d.Handler, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	d.Started(ln.Addr().String())

	select {
	case err := <-served: // nothing has shut the server down, so this is a failure
		fmt.Fprintln(stderr, err)
		return ExitError
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "\nsignal: draining (timeout %v)\n", d.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), d.DrainTimeout)
	defer cancel()
	go func() {
		select {
		case <-forced(ctx):
			fmt.Fprintln(stderr, "second signal: forcing shutdown")
			cancel()
		case <-dctx.Done():
		}
	}()
	d.Drain(dctx, func() error {
		err := hs.Shutdown(dctx)
		if err != nil {
			hs.Close()
		}
		return err
	})
	return ExitOK
}
