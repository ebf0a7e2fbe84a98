package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"imc2/internal/wire"
)

// daemon is one platformd process under test. Its log goes to a file so
// that the daemon's per-request logging costs what it costs in service.
type daemon struct {
	bin  string
	addr string
	args []string
	log  string

	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
}

// freeAddr picks a loopback address with a free port for the daemon.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("picking a port: %w", err)
	}
	return addr, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

// start launches the process; it does not wait for it to serve.
func (d *daemon) start() error {
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("opening daemon log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(d.bin, append([]string{"-addr", d.addr}, d.args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting platformd: %w", err)
	}
	d.cmd = cmd
	d.exited = make(chan struct{})
	go func(exited chan struct{}) {
		// Wait reports a kill as an error; only the reaping matters.
		_ = cmd.Wait()
		close(exited)
	}(d.exited)
	return nil
}

// awaitServing polls the health endpoint until the daemon answers.
func (d *daemon) awaitServing(ctx context.Context, cl *wire.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for !cl.Healthy(ctx) {
		select {
		case <-d.exited:
			return fmt.Errorf("platformd exited before serving (see %s)", d.log)
		case <-ctx.Done():
			return fmt.Errorf("platformd did not serve within 60s (see %s): %w", d.log, ctx.Err())
		case <-time.After(250 * time.Microsecond):
		}
	}
	return nil
}

// kill sends SIGKILL and waits for the process to be gone. It is safe to
// call on a daemon that is not running.
func (d *daemon) kill() error {
	if d.cmd == nil {
		return nil
	}
	cmd := d.cmd
	d.cmd = nil
	if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("killing platformd: %w", err)
	}
	<-d.exited
	return nil
}

// peakRSSMB reads the daemon's VmHWM, its peak resident set, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	if d.cmd == nil {
		return 0, errors.New("platformd is not running")
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading platformd status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("platformd status has no VmHWM line")
}
