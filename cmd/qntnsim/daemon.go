package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qntn/internal/qntn"
)

// runServeDaemon starts the persistent traffic-engine daemon on -addr and
// blocks until SIGINT/SIGTERM, then drains in-flight queries before
// returning. The listen address is printed once the socket is bound, so
// scripts using -addr :0 can scrape the chosen port.
func runServeDaemon(w io.Writer, p qntn.Params, _ qntn.ServeConfig, opt options) error {
	d, err := qntn.NewDaemon(p, time.Now)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serve-daemon listening on %s\n", ln.Addr())
	fmt.Fprintf(w, "POST /v1/traffic for NDJSON results, GET /metrics for Prometheus metrics\n")

	srv := &http.Server{Handler: d.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		// Serve never returns nil; surface the listener failure.
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintln(w, "serve-daemon: signal received, draining in-flight queries")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("serve-daemon: drain: %w", err)
		}
		fmt.Fprintln(w, "serve-daemon: drained, shutting down")
		return nil
	}
}
