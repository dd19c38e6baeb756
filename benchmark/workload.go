package main

import (
	"encoding/binary"
	"math/rand/v2"
)

// wordBytes is the memory word every workload uses (the daemon's -word
// default).
const wordBytes = 8

// warmupRequests is the size of the untimed warm-up that precedes every
// timed phase; it is part of setup_s.
const warmupRequests = 131072

// ladderRequests is how many of a workload's first timed requests the
// traced in-process ladder replays.
const ladderRequests = 1 << 20

// sampleEvery: one read in this many carries a wall-clock latency stamp.
const sampleEvery = 16

// workload is one traffic mix: the daemon flags it runs against and the
// client shape that drives it.
type workload struct {
	name string
	why  string
	// daemonFlags are appended to the daemon's defaults.
	daemonFlags []string
	ooo         bool   // daemon runs the out-of-order stage
	coded       string // daemon's -coded value, "" when off
	window      int
	batch       int
	writeFrac   float64
	addrSpace   uint64
	// openRate > 0 selects the open loop: that many requests per second,
	// released in 1 ms slots. Zero is the closed loop.
	openRate int
}

// workloads is the benchmark's fixed set. The why strings are the ones
// BENCHMARK.json carries; TestBenchmarkJSONMatches keeps them equal.
var workloads = []workload{
	{
		name:      "default-flags",
		why:       "What vpnmd and vpnmload do out of the box: window 512 < D x ports, so the run is window-limited and the clock rate and window policy set throughput.",
		window:    512,
		batch:     256,
		writeFrac: 0.1,
		addrSpace: 1 << 20,
	},
	{
		name:        "saturated-reads",
		why:         "Engine-bound: -ooo -coded group=4,k=2; window 16384 > D x ports, so the engine is never starved and Stage, coded grant/decode, multichannel.Tick and delivery do the work.",
		daemonFlags: []string{"-ooo", "-coded", "group=4,k=2"},
		ooo:         true,
		coded:       "group=4,k=2",
		window:      16384,
		batch:       256,
		addrSpace:   1 << 24,
	},
	{
		name:      "write-heavy",
		why:       "50% writes on the in-order path: payload in request frames, accept replies, write buffer, channel-busy retries. A read-path gain that costs writes shows here.",
		window:    8192,
		batch:     256,
		writeFrac: 0.5,
		addrSpace: 1 << 20,
	},
	{
		name:        "hot-set",
		why:         "Reads over 64 addresses: nearly every read merges in the delay-storage CAM, banks idle, so client, wire and transport dominate. Bank-side changes predict no move.",
		daemonFlags: []string{"-ooo"},
		ooo:         true,
		window:      8192,
		batch:       256,
		addrSpace:   64,
	},
	{
		name:      "open-100k",
		why:       "Open loop at 100000 req/s in 1 ms slots: latency from the due time without window queueing; floor is D / cycles_per_s. Throughput is pinned by the schedule.",
		window:    8192,
		batch:     256,
		writeFrac: 0.1,
		addrSpace: 1 << 20,
		openRate:  100000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated request.
type request struct {
	addr  uint64
	write bool
}

// Generator streams: the warm-up and the timed phase draw from
// different PCG streams of the same seed, so the timed phase's first
// requests are the same whatever the warm-up consumed — the traced
// ladder regenerates exactly them.
const (
	streamWarmup = 0x9e3779b97f4a7c15
	streamTimed  = 0xbf58476d1ce4e5b9
)

// generator produces a workload's request sequence from a seed. The
// daemon never sees the seed, only the requests.
type generator struct {
	rng       *rand.Rand
	addrSpace uint64
	writeFrac float64
}

func newGenerator(w workload, seed, stream uint64) *generator {
	return &generator{
		rng:       rand.New(rand.NewPCG(seed, stream)),
		addrSpace: w.addrSpace,
		writeFrac: w.writeFrac,
	}
}

func (g *generator) next() request {
	r := request{addr: g.rng.Uint64N(g.addrSpace)}
	if g.writeFrac > 0 && g.rng.Float64() < g.writeFrac {
		r.write = true
	}
	return r
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// canary is the only value a workload ever writes to addr, so every read
// must return zeros (never written) or exactly this.
func canary(addr, seed uint64) uint64 { return mix64(addr ^ seed) }

// putCanary encodes addr's canary word into dst (wordBytes long).
func putCanary(dst []byte, addr, seed uint64) {
	binary.LittleEndian.PutUint64(dst, canary(addr, seed))
}

// canaryHolds reports whether a read of addr returned a legal word.
func canaryHolds(data []byte, addr, seed uint64) bool {
	if len(data) != wordBytes {
		return false
	}
	v := binary.LittleEndian.Uint64(data)
	return v == 0 || v == canary(addr, seed)
}
