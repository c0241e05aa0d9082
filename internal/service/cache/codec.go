package cache

import "strconv"

// A kernel-latency entry's payload is the kernel's cycle count in decimal
// ASCII. The payload format's version lives in the key prefix (LatencyKey),
// so a new format starts a fresh key space rather than misreading old
// entries.

// EncodeLatency serializes one measured kernel latency for the store.
func EncodeLatency(cycles int64) []byte {
	return strconv.AppendInt(nil, cycles, 10)
}

// DecodeLatency parses a stored kernel latency. Anything but the canonical
// encoding of a non-negative cycle count (what EncodeLatency writes) is
// rejected, and callers treat it as a miss.
func DecodeLatency(data []byte) (int64, bool) {
	v, err := strconv.ParseInt(string(data), 10, 64)
	if err != nil || v < 0 || string(EncodeLatency(v)) != string(data) {
		return 0, false
	}
	return v, true
}
