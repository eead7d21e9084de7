package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"counterminer/pkg/client"
)

// daemon is one counterminerd subprocess at default flags plus -db.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	db     string
	stdout chan struct{} // closed once the daemon's stdout hits EOF
	c      *client.Client
}

// startDaemon launches counterminerd on an ephemeral port and returns
// once /readyz answers 200.
func startDaemon(ctx context.Context, bin, db string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-db", db)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is
	// killed before it can stop the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, db: db, stdout: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "counterminerd: listening on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.stdout:
		d.stop()
		return nil, errors.New("counterminerd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("counterminerd did not listen within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	d.c = newClient(d.base)
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := d.c.Ready(ctx)
		if err == nil && r.Status == "ready" {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			if err == nil {
				err = fmt.Errorf("status %q: %v", r.Status, r.Reasons)
			}
			return nil, fmt.Errorf("counterminerd not ready: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newClient returns a client that never retries (a refusal must count
// as a failure) and opens at most GOMAXPROCS connections.
func newClient(base string) *client.Client {
	n := runtime.GOMAXPROCS(0)
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
	return client.New(base, client.WithHTTPClient(hc), client.WithMaxRetries(0))
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM (the daemon drains and flushes its store), waits
// for the exit, and kills the daemon if it has not exited in 20s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.stdout
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return errors.New("counterminerd did not drain within 20s; killed")
	}
}
