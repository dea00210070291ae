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
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is one ehserved process this run started, listening on a
// loopback port the benchmark picked.
type daemon struct {
	cmd     *exec.Cmd
	pid     string
	base    string
	readyAt time.Time
	exited  chan struct{}
	// load carries a workload's requests over at most nproc connections;
	// ctl carries everything else (probes, scrapes, profiles, jobs).
	load, ctl *http.Client
	once      sync.Once
}

// startDaemon launches .bench_build/bin/ehserved with default flags plus
// extra and waits until it is ready. A launch whose port was taken in the
// meantime fails its identity check and is retried on a fresh port.
func startDaemon(ctx context.Context, b *bench, extra ...string) (*daemon, error) {
	var errs []error
	for range 3 {
		d, err := launchDaemon(ctx, b, extra)
		if err == nil {
			return d, nil
		}
		errs = append(errs, err)
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("start ehserved: %w", errors.Join(errs...))
}

func launchDaemon(ctx context.Context, b *bench, extra []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(b.out, "ehserved.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", "127.0.0.1:" + port}, extra...)
	cmd := exec.Command(filepath.Join(b.out, "bin", "ehserved"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// SIGKILL the daemon if this process dies first, however it dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	launched := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:    cmd,
		pid:    strconv.Itoa(cmd.Process.Pid),
		base:   "http://127.0.0.1:" + port,
		exited: make(chan struct{}),
		load:   newClient(b.nproc),
		ctl:    newClient(16),
	}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitReady(ctx, launched); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// awaitReady polls /readyz, then checks that the process answering is
// this one: it is still alive, and the server it runs was built after the
// launch. A stale daemon on the same port fails the second test.
func (d *daemon) awaitReady(ctx context.Context, launched time.Time) error {
	deadline := launched.Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("ehserved exited during start-up: %v", d.cmd.ProcessState)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("ehserved not ready after 20s")
		}
		code, _, err := d.get(ctx, "/readyz")
		if err == nil && code == http.StatusOK {
			d.readyAt = time.Now()
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	select {
	case <-d.exited:
		return errors.New("ehserved answered /readyz but its process has exited: another server holds the port")
	default:
	}
	m, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	started := m["ehserved_start_time_seconds"]
	if started < float64(launched.UnixNano())/1e9-0.05 {
		return fmt.Errorf("server on %s started at %.3f, before this launch at %.3f: another server holds the port",
			d.base, started, float64(launched.UnixNano())/1e9)
	}
	return nil
}

// stop kills the daemon and waits for it to exit. It is safe to call
// more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill()
		<-d.exited
		d.load.CloseIdleConnections()
		d.ctl.CloseIdleConnections()
	})
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// newClient returns a keep-alive client holding at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

func (d *daemon) send(ctx context.Context, c *http.Client, method, path string, body []byte) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// stream GETs path and hands fn each line of the body as it arrives.
func (d *daemon) stream(ctx context.Context, path string, fn func(line []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %.300s", path, resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

func (d *daemon) get(ctx context.Context, path string) (int, []byte, error) {
	code, data, _, err := d.send(ctx, d.ctl, http.MethodGet, path, nil)
	return code, data, err
}

// post sends body and fails unless the daemon answers with want.
func (d *daemon) post(ctx context.Context, path string, body []byte, want int) ([]byte, error) {
	code, data, _, err := d.send(ctx, d.ctl, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	if code != want {
		return nil, fmt.Errorf("POST %s: status %d, want %d: %.300s", path, code, want, data)
	}
	return data, nil
}

// mustGet fetches path and fails on any status but 200.
func (d *daemon) mustGet(ctx context.Context, path string) ([]byte, error) {
	code, data, err := d.get(ctx, path)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.300s", path, code, data)
	}
	return data, nil
}

func (d *daemon) scrape(ctx context.Context) (promText, error) {
	data, err := d.mustGet(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(data), nil
}

// cpu is the daemon's CPU time (user plus system) so far.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.pid) }

// peakRSS is the daemon's resident-set high-water mark in MiB.
func (d *daemon) peakRSS() (float64, error) { return procHWM(d.pid) }
