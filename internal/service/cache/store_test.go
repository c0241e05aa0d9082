package cache

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMemoryRoundTrip(t *testing.T) {
	s := NewMemory()
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, ok := s.Get("k")
	if !ok || string(data) != "payload" {
		t.Fatalf("Get = %q, %v", data, ok)
	}
	// The returned slice is a copy: mutating it must not poison the store.
	data[0] = 'X'
	again, _ := s.Get("k")
	if string(again) != "payload" {
		t.Fatalf("store mutated through returned slice: %q", again)
	}
	hits, misses := s.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 2, 1", hits, misses)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	s, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalHash("some", "content")
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	want := []byte("artifact bytes\nwith newlines\x00and zeros")
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, want)
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalHash("persisted")
	if err := s1.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "value" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
}

// entryFile locates the single entry file written for key.
func entryFile(t *testing.T, dir, key string) string {
	t.Helper()
	p := filepath.Join(dir, diskVersion, key[len(key)-2:], key)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file missing: %v", err)
	}
	return p
}

func TestDiskCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalHash("corrupt-me")
	if err := s.Put(key, []byte("good payload")); err != nil {
		t.Fatal(err)
	}
	p := entryFile(t, dir, key)

	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: checksum mismatch.
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}

	// Truncated file: no complete envelope.
	if err := os.WriteFile(p, []byte(diskMagic+"\nabc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("truncated entry served as a hit")
	}

	// A fresh Put repairs the entry.
	if err := s.Put(key, []byte("repaired")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "repaired" {
		t.Fatalf("repaired Get = %q, %v", got, ok)
	}
}

func TestDiskWrongMagicIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalHash("wrong-magic")
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	p := entryFile(t, dir, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	stale := []byte("ptsimc0\n" + strings.SplitN(string(raw), "\n", 2)[1])
	if err := os.WriteFile(p, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("wrong-magic entry served as a hit")
	}
}

func TestDiskRejectsTraversalKeys(t *testing.T) {
	s, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "..", "a/b", `a\b`, "x:y"} {
		if err := s.Put(key, []byte("v")); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) reported a hit", key)
		}
	}
}

func TestLayeredBackfill(t *testing.T) {
	fast, slow := NewMemory(), NewMemory()
	s := NewLayered(fast, slow)

	// Seed only the slow tier (a disk entry from a previous process).
	if err := slow.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("layered Get = %q, %v", got, ok)
	}
	// The hit must have backfilled the fast tier.
	if _, ok := fast.Get("k"); !ok {
		t.Fatal("slow-tier hit did not backfill the fast tier")
	}

	// Put writes through to both tiers.
	if err := s.Put("w", []byte("both")); err != nil {
		t.Fatal(err)
	}
	if _, ok := fast.Get("w"); !ok {
		t.Fatal("Put missed the fast tier")
	}
	if _, ok := slow.Get("w"); !ok {
		t.Fatal("Put missed the slow tier")
	}

	if _, ok := s.Get("absent"); ok {
		t.Fatal("miss reported as hit")
	}
	hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

func TestLatencyCodecRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 7, 123456789, math.MaxInt64} {
		got, ok := DecodeLatency(EncodeLatency(v))
		if !ok || got != v {
			t.Fatalf("round trip of %d = %d, %v", v, got, ok)
		}
	}
}

// Format-1 tables, garbage and non-canonical numbers all read as misses.
func TestLatencyCodecRejectsWrongSchema(t *testing.T) {
	for _, data := range []string{
		`{"schema":1,"latencies":{"gemm_m8_k8_n8":123}}`,
		"not a number", "", "-5", "+5", "007", " 7", "7\n", "99999999999999999999",
	} {
		if v, ok := DecodeLatency([]byte(data)); ok {
			t.Errorf("DecodeLatency(%q) = %d, accepted", data, v)
		}
	}
}

func TestLatencyKeyDistinguishesCores(t *testing.T) {
	type core struct{ SARows, SACols int }
	a, b := CanonicalHash(core{8, 8}), CanonicalHash(core{16, 16})
	ka := LatencyKey(a, "gemm_m8_k8_n8")
	if ka == LatencyKey(b, "gemm_m8_k8_n8") {
		t.Fatal("different cores share a latency key")
	}
	if ka == LatencyKey(a, "gemm_m8_k8_n16") {
		t.Fatal("different kernels share a latency key")
	}
	if ka != LatencyKey(CanonicalHash(core{8, 8}), "gemm_m8_k8_n8") {
		t.Fatal("latency key not stable")
	}
	if !strings.HasPrefix(ka, latencyKeyPrefix) || !validKey(ka) {
		t.Fatalf("latency key %q lacks the format prefix or fails the key check", ka)
	}
	// Any signature, however long or odd, yields a valid key.
	if k := LatencyKey(a, strings.Repeat("a/b:\\x00", 100)); !validKey(k) {
		t.Fatalf("odd signature gave invalid key %q", k)
	}
}

// A writer killed between writing its temp file and renaming it leaves a
// <key>.tmp* file in the shard directory: Get never serves it, and a later
// Put of the same key publishes normally.
func TestDiskCrashedWriterLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := LatencyKey(CanonicalHash("core"), "gemm_m8_k8_n8")
	if err := os.MkdirAll(filepath.Dir(s.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	// What Put had written when the writer died: a complete envelope under
	// the temp name, never renamed.
	tmp, err := os.CreateTemp(filepath.Dir(s.path(key)), key+".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write(sealEnvelope(EncodeLatency(41))); err != nil {
		t.Fatal(err)
	}
	tmp.Close()

	reopened, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := reopened.Get(key); ok {
		t.Fatalf("Get served the crashed writer's temp file: %q", data)
	}
	if err := reopened.Put(key, EncodeLatency(42)); err != nil {
		t.Fatal(err)
	}
	data, ok := reopened.Get(key)
	if v, vok := DecodeLatency(data); !ok || !vok || v != 42 {
		t.Fatalf("Get after Put = %q, %v", data, ok)
	}
}
