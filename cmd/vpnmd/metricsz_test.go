package main

import (
	"bufio"
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// TestMetricszSeriesGolden scrapes /metricsz from the built daemon at its
// defaults and with -coded group=4,k=2, and compares the series set —
// names and labels, values stripped — with testdata/metricsz-*.golden.
// When a series moves from the clock to scrape time, or any other change
// touches how telemetry is published, no series may appear, vanish or
// change its labels.
func TestMetricszSeriesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "vpnmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"coded", []string{"-coded", "group=4,k=2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := strings.Join(scrapeSeries(t, bin, tc.args), "\n") + "\n"
			golden := filepath.Join("testdata", "metricsz-"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("/metricsz series set differs from %s (run with -update only for an intended change):\ngot:\n%s", golden, got)
			}
		})
	}
}

// scrapeSeries starts the daemon with args on loopback, scrapes
// /metricsz once, and returns its sorted series keys.
func scrapeSeries(t *testing.T, bin string, args []string) []string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	statsz := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0", "-statsz", statsz, "-q"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill() //nolint:errcheck // the scrape is done; stop the daemon
		cmd.Wait()         //nolint:errcheck // killed on purpose
	}()
	lines := bufio.NewScanner(stdout)
	for i := 0; i < 2; i++ { // the second banner line means the endpoints are mounted
		if !lines.Scan() {
			t.Fatal("daemon output ended before its banner")
		}
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // keep the daemon's stdout drained

	var body io.ReadCloser
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get("http://" + statsz + "/metricsz")
		if err == nil {
			body = resp.Body
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrape /metricsz: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer body.Close()
	parsed, err := telemetry.ParseText(body)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(parsed))
	for k := range parsed {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
