package cache

import (
	"bytes"
	"strconv"
	"testing"
)

// The two byte formats that cross disk and HTTP: the checksummed envelope
// every stored or transferred entry is wrapped in, and the kernel-latency
// payload inside it.

// FuzzOpenEnvelope: opening arbitrary bytes never panics, sealing then
// opening round-trips, and flipping one byte of a sealed envelope never
// opens to a different payload.
func FuzzOpenEnvelope(f *testing.F) {
	f.Add([]byte("payload"), uint(0), byte(1))
	f.Add(EncodeLatency(1234), uint(9), byte(0x20))
	f.Add([]byte{}, uint(3), byte(0xff))
	f.Add([]byte(diskMagic+"\n"), uint(80), byte(0x80))
	f.Fuzz(func(t *testing.T, data []byte, pos uint, mask byte) {
		_, _ = openEnvelope(data)

		env := sealEnvelope(data)
		got, ok := openEnvelope(env)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("seal/open of %q = %q, %v", data, got, ok)
		}

		if mask == 0 {
			mask = 1
		}
		env[pos%uint(len(env))] ^= mask
		if got, ok := openEnvelope(env); ok && !bytes.Equal(got, data) {
			t.Fatalf("flipped envelope opened to %q, sealed %q", got, data)
		}
	})
}

// FuzzLatencyPayload: decoding arbitrary bytes never panics and accepts
// only the canonical encoding of a non-negative cycle count (anything else
// reads as a miss), and encoding then decoding round-trips.
func FuzzLatencyPayload(f *testing.F) {
	f.Add([]byte("123"), int64(123))
	f.Add([]byte(`{"schema":1,"latencies":{}}`), int64(0))
	f.Add([]byte("-1"), int64(-1))
	f.Add([]byte("0042"), int64(1<<62))
	f.Fuzz(func(t *testing.T, data []byte, cycles int64) {
		v, ok := DecodeLatency(data)
		if ok && (v < 0 || string(EncodeLatency(v)) != string(data)) {
			t.Fatalf("DecodeLatency(%q) accepted %d", data, v)
		}
		if _, err := strconv.ParseInt(string(data), 10, 64); err != nil && ok {
			t.Fatalf("DecodeLatency(%q) accepted an unparsable payload", data)
		}

		got, ok := DecodeLatency(EncodeLatency(cycles))
		if cycles >= 0 && (!ok || got != cycles) {
			t.Fatalf("round trip of %d = %d, %v", cycles, got, ok)
		}
		if cycles < 0 && ok {
			t.Fatalf("negative latency %d decoded", cycles)
		}
	})
}
