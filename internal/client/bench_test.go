package client_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/client"
)

// BenchmarkClientClosedLoop is the client's own rung: a closed loop of
// reads with the window kept full, against an in-process responder
// (answerReads) that answers every request frame with one completion
// frame and runs no engine. What it times is the client's per-request
// work — window slot, pending table, frame encode, completion decode,
// callback dispatch — on top of net.Pipe. Steady state allocates
// nothing. `make profile-client` runs it under the CPU profiler.
func BenchmarkClientClosedLoop(b *testing.B) {
	const window = 1024
	cn, sn := net.Pipe()
	go answerReads(sn)
	c := client.New(cn, client.Config{Window: window, MaxBatch: 256})
	defer sn.Close()
	defer c.Close()

	var resolved, want atomic.Int64
	done := make(chan struct{}, 1)
	cb := func(client.Completion) {
		if resolved.Add(1) == want.Load() {
			done <- struct{}{}
		}
	}
	run := func(n int) {
		want.Store(resolved.Load() + int64(n))
		for i := 0; i < n; i++ {
			if err := c.Read(context.Background(), uint64(i&1023), cb); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	}
	run(4 * window) // warm the pending table, buffers and pool
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/req")
}
