package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
)

// The two banner lines the benchmark driver (benchmark/daemon.go) reads:
// the bound service address after the last " on " of the first, and the
// second as the sign that the observability endpoints are mounted.
var (
	servingLine = regexp.MustCompile(`^vpnmd: serving 4 channels x 32 banks, D=(\d+) cycles, word=8B, policy=backpressure, coded group=4,k=2 \(8 read ports/cycle\) on (127\.0\.0\.1:\d+)$`)
	statszLine  = regexp.MustCompile(`^vpnmd: /statsz /metricsz /tracez /debug/pprof on 127\.0\.0\.1:0$`)
)

// TestDaemonSmoke builds the daemon and starts it the way the benchmark
// does: checks both banner lines, serves one write and read over TCP,
// and expects SIGINT to drain it clean with exit code 0. It also checks
// that removed flags are rejected with the flag package's usage exit
// code: -tick went with the paced clock, -poolcheck with the
// frame-buffer pool.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "vpnmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, removed := range [][]string{{"-tick", "1ms"}, {"-poolcheck"}} {
		// A daemon that accepts the flag serves until the timeout kills it.
		fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
		args := append(removed, "-addr", "127.0.0.1:0", "-statsz", "127.0.0.1:0", "-q")
		err := exec.CommandContext(fctx, bin, args...).Run()
		fcancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("vpnmd %s: %v, want exit code 2", strings.Join(removed, " "), err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-statsz", "127.0.0.1:0", "-q", "-ooo", "-coded", "group=4,k=2")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // a no-op once the daemon has exited
	lines := bufio.NewScanner(stdout)
	next := func() string {
		if !lines.Scan() {
			t.Fatalf("daemon output ended early (stderr: %s)", stderr.String())
		}
		return lines.Text()
	}

	m := servingLine.FindStringSubmatch(next())
	if m == nil {
		t.Fatalf("first banner line has the wrong shape: %q", lines.Text())
	}
	if line := next(); !statszLine.MatchString(line) {
		t.Fatalf("second banner line has the wrong shape: %q", line)
	}

	// A served round trip also proves the daemon is past its signal
	// handler installation, so the SIGINT below asks for a drain.
	c, err := client.Dial(m[2], client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strconv.FormatUint(st.Delay, 10) != m[1] || st.Channels != 4 {
		t.Fatalf("Stats reports D=%d channels=%d, banner said D=%s channels=4", st.Delay, st.Channels, m[1])
	}
	word := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := c.Write(ctx, 0xbeef, word); err != nil {
		t.Fatal(err)
	}
	got := make(chan client.Completion, 1)
	if err := c.Read(ctx, 0xbeef, func(comp client.Completion) {
		comp.Data = append([]byte(nil), comp.Data...)
		got <- comp
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if comp := <-got; comp.Err != nil || !bytes.Equal(comp.Data, word) || comp.DeliveredAt-comp.IssuedAt != st.Delay {
		t.Fatalf("read back %+v, want %v at exactly D=%d", comp, word, st.Delay)
	}
	c.Close()

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for lines.Scan() {
		rest = append(rest, lines.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v (stderr: %s)", err, stderr.String())
	}
	if out := strings.Join(rest, "\n"); !strings.Contains(out, "vpnmd: drained clean: 1 completions, 0 outstanding") {
		t.Fatalf("no clean drain verdict in:\n%s", out)
	}
}
