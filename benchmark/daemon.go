package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// buildDaemon compiles ./cmd/vpnmd from the repository at root into
// outDir and returns the binary's path and how long the build took.
// Build time depends on the build cache, so it is printed, never gated.
func buildDaemon(ctx context.Context, root, outDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(outDir, "vpnmd")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/vpnmd")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/vpnmd in %s: %w", root, err)
	}
	return bin, time.Since(start), nil
}

// daemon is one vpnmd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // bound service address, parsed from the banner
	statsz  string // host:port of the observability listener
	spawned time.Time
	stdout  lockedBuffer
	stderr  lockedBuffer
	scanned chan struct{} // closed once the stdout copier has hit EOF
	http    *http.Client
}

// lockedBuffer collects a child's output while another goroutine may
// read it for a failure report.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// spawnAttempts bounds the retries after a port collision.
const spawnAttempts = 5

// readyTimeout bounds the wait for the daemon's banner, statszTimeout
// the wait for its observability listener after that.
const (
	readyTimeout  = 20 * time.Second
	statszTimeout = 3 * time.Second
)

// spawnDaemon starts a fresh daemon on 127.0.0.1:0 with -statsz on a
// pre-picked free port and waits until both listeners answer. The
// statsz port is chosen by binding and releasing it, so another process
// can take it in between; the daemon logs that and serves on without
// statsz, which the first scrape detects — then the child is killed and
// the spawn retried on a new port. The child dies with ctx, and with
// this process.
func spawnDaemon(ctx context.Context, bin string, flags []string) (*daemon, error) {
	var last error
	for attempt := 0; attempt < spawnAttempts; attempt++ {
		d, err := spawnOnce(ctx, bin, flags)
		if err == nil {
			return d, nil
		}
		last = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("daemon did not come up after %d attempts: %w", spawnAttempts, last)
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func spawnOnce(ctx context.Context, bin string, flags []string) (*daemon, error) {
	statsz, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-statsz", statsz, "-q"}, flags...)
	d := &daemon{
		statsz:  statsz,
		scanned: make(chan struct{}),
		http:    &http.Client{Timeout: 10 * time.Second},
	}
	d.cmd = exec.CommandContext(ctx, bin, args...)
	d.cmd.Stderr = &d.stderr
	// Pdeathsig: the kernel kills the child if this process dies without
	// running its deferred stops.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.spawned = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	banner := make(chan string, 1) // the copier sends at most one address
	go func() {
		defer close(d.scanned)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(&d.stdout, line)
			if !sent {
				if a, ok := bannerAddr(line); ok {
					banner <- a
					sent = true
				}
			}
		}
	}()
	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case d.addr = <-banner:
	case <-d.scanned:
		d.kill()
		return nil, fmt.Errorf("daemon exited before its banner: %s", d.stderr.String())
	case <-timer.C:
		d.kill()
		return nil, errors.New("daemon printed no banner in time")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	// The daemon binds -statsz from a goroutine after the banner, so the
	// first scrapes may be refused; a port lost to another process never
	// starts answering.
	for deadline := time.Now().Add(statszTimeout); ; time.Sleep(5 * time.Millisecond) {
		_, err := d.statszSnapshot()
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("statsz on %s unusable (port collision?): %w", statsz, err)
		}
	}
}

// bannerAddr extracts the bound address from the daemon's
// "vpnmd: serving ... on 127.0.0.1:PORT" line.
func bannerAddr(line string) (string, bool) {
	if !strings.HasPrefix(line, "vpnmd: serving ") {
		return "", false
	}
	i := strings.LastIndex(line, " on ")
	if i < 0 {
		return "", false
	}
	addr := strings.TrimSpace(line[i+len(" on "):])
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return "", false
	}
	return addr, true
}

// kill is the unconditional stop: SIGKILL and reap.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	}
	<-d.scanned
	d.cmd.Wait() //nolint:errcheck // killed on purpose
}

// stop asks for a graceful drain with SIGINT and checks the daemon's own
// verdict: exit code 0 and a "drained clean" line. A daemon that does
// not exit within the budget is killed and reported.
func (d *daemon) stop(budget time.Duration) error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.kill()
		return fmt.Errorf("signal daemon: %w", err)
	}
	timer := time.AfterFunc(budget, func() { d.cmd.Process.Kill() }) //nolint:errcheck // racing a clean exit is fine
	<-d.scanned
	err := d.cmd.Wait()
	if !timer.Stop() {
		return fmt.Errorf("daemon ignored SIGINT for %v and was killed", budget)
	}
	if err != nil {
		return fmt.Errorf("daemon exit: %w; stderr: %s", err, d.stderr.String())
	}
	if !strings.Contains(d.stdout.String(), "drained clean") {
		return fmt.Errorf("daemon exited 0 without a clean drain: %s", d.stdout.String())
	}
	return nil
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.http.Get("http://" + d.statsz + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// statszSnapshot scrapes /statsz into the engine's own ledger type.
func (d *daemon) statszSnapshot() (server.Snapshot, error) {
	var s server.Snapshot
	body, err := d.get("/statsz")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return s, fmt.Errorf("statsz: %w", err)
	}
	if s.Delay == 0 || s.Channels == 0 {
		return s, fmt.Errorf("statsz: not an engine ledger: %s", body)
	}
	return s, nil
}

// metricsz scrapes /metricsz and sums every series by metric name,
// labels dropped: per-channel counters become memory-wide totals.
func (d *daemon) metricsz() (map[string]float64, error) {
	body, err := d.get("/metricsz")
	if err != nil {
		return nil, err
	}
	return sumSeries(body), nil
}

func sumSeries(body []byte) map[string]float64 {
	sums := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		sums[name] += v
	}
	return sums
}

// clkTck is the kernel's USER_HZ, which /proc/<pid>/stat counts CPU time
// in; it is 100 on every Linux port Go supports.
const clkTck = 100

// cpuSeconds reads the daemon's user+system CPU time from
// /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) in seconds.
// The command name (field 2) may contain spaces, so fields are counted
// from the closing parenthesis.
func parseProcStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad cpu fields %q %q", f[11], f[12])
	}
	return float64(ut+st) / clkTck, nil
}

// peakRSSMB reads the daemon's high-water resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: odd VmHWM line %q", line)
			}
			kb, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
