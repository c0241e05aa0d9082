package cache

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// peerHandler serves a Memory store over the /cache/{key} wire protocol —
// the same shape the daemon exposes, minimal enough to corrupt at will.
func peerHandler(st *Memory) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, ok := st.Get(r.PathValue("key"))
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		_, _ = w.Write(sealEnvelope(data))
	})
	mux.HandleFunc("PUT /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		payload, ok := openEnvelope(raw)
		if !ok {
			http.Error(w, "corrupt", http.StatusBadRequest)
			return
		}
		_ = st.Put(r.PathValue("key"), payload)
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

const peerKey = "deadbeef00112233"

func TestPeerGetHit(t *testing.T) {
	st := NewMemory()
	_ = st.Put(peerKey, []byte("artifact-bytes"))
	ts := httptest.NewServer(peerHandler(st))
	defer ts.Close()

	p := NewPeer(func(string) []string { return []string{ts.URL} }, 0)
	data, ok := p.Get(peerKey)
	if !ok || string(data) != "artifact-bytes" {
		t.Fatalf("Get = %q, %v; want artifact-bytes, true", data, ok)
	}
	if hits, misses := p.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("stats %d/%d, want 1/0", hits, misses)
	}
}

// A clean 404 from the first candidate is a miss that ends the lookup:
// the second candidate is never contacted.
func TestPeerGetMissOnAbsent(t *testing.T) {
	first := httptest.NewServer(peerHandler(NewMemory()))
	defer first.Close()
	var asked atomic.Int64
	st := NewMemory()
	_ = st.Put(peerKey, []byte("artifact-bytes"))
	second := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		peerHandler(st).ServeHTTP(w, r)
	}))
	defer second.Close()

	p := NewPeer(func(string) []string { return []string{first.URL, second.URL} }, 0)
	if _, ok := p.Get(peerKey); ok {
		t.Fatal("absent key reported as hit")
	}
	if n := asked.Load(); n != 0 {
		t.Fatalf("second candidate contacted %d times after a clean 404", n)
	}
	if _, errs := p.NetStats(); errs != 0 {
		t.Fatalf("a 404 is a clean miss, not an error (errs=%d)", errs)
	}
}

// An unreachable peer (connection refused) is a clean miss, never an error
// surfaced to the compile path.
func TestPeerGetMissOnUnreachable(t *testing.T) {
	ts := httptest.NewServer(peerHandler(NewMemory()))
	url := ts.URL
	ts.Close() // port now refuses connections
	p := NewPeer(func(string) []string { return []string{url} }, 0)
	if _, ok := p.Get(peerKey); ok {
		t.Fatal("unreachable peer reported a hit")
	}
	if hits, misses := p.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats %d/%d, want 0/1", hits, misses)
	}
	if _, errs := p.NetStats(); errs == 0 {
		t.Fatal("transport failure not counted")
	}
}

// A peer slower than the client timeout degrades to a bounded-latency miss.
func TestPeerGetMissOnSlowPeer(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer func() { close(release); ts.Close() }()

	p := NewPeer(func(string) []string { return []string{ts.URL} }, 50*time.Millisecond)
	start := time.Now()
	_, ok := p.Get(peerKey)
	if ok {
		t.Fatal("slow peer reported a hit")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("slow peer stalled the caller %v", d)
	}
}

// A corrupt response body (checksum mismatch) fails envelope verification
// and degrades to a miss.
func TestPeerGetMissOnCorruptBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		env := sealEnvelope([]byte("artifact-bytes"))
		env[len(env)-1] ^= 0xff // flip a payload bit after sealing
		_, _ = w.Write(env)
	}))
	defer ts.Close()
	p := NewPeer(func(string) []string { return []string{ts.URL} }, 0)
	if _, ok := p.Get(peerKey); ok {
		t.Fatal("corrupt envelope accepted")
	}
	if _, errs := p.NetStats(); errs != 1 {
		t.Fatal("corruption not counted as an error")
	}
}

// Get falls through the candidate list after a failed round trip: a dead
// first owner, or one answering with a corrupt envelope, hides nothing when
// the second has the artifact.
func TestPeerGetSecondCandidate(t *testing.T) {
	st := NewMemory()
	_ = st.Put(peerKey, []byte("artifact-bytes"))
	good := httptest.NewServer(peerHandler(st))
	defer good.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		env := sealEnvelope([]byte("artifact-bytes"))
		env[len(env)-1] ^= 0xff
		_, _ = w.Write(env)
	}))
	defer corrupt.Close()

	for _, first := range []string{deadURL, corrupt.URL} {
		p := NewPeer(func(string) []string { return []string{first, good.URL} }, 0)
		data, ok := p.Get(peerKey)
		if !ok || string(data) != "artifact-bytes" {
			t.Fatalf("fallback Get past %s = %q, %v", first, data, ok)
		}
		if _, errs := p.NetStats(); errs != 1 {
			t.Fatalf("errs = %d after one failed candidate, want 1", errs)
		}
	}
}

// Put writes through to the owner; a following Get from another node sees
// the artifact (the backfill path a fleet member uses after compiling).
func TestPeerPutWriteThrough(t *testing.T) {
	st := NewMemory()
	ts := httptest.NewServer(peerHandler(st))
	defer ts.Close()

	writer := NewPeer(func(string) []string { return []string{ts.URL} }, 0)
	if err := writer.Put(peerKey, []byte("compiled")); err != nil {
		t.Fatal(err)
	}
	if puts, errs := writer.NetStats(); puts != 1 || errs != 0 {
		t.Fatalf("net stats %d/%d, want 1 put, 0 errs", puts, errs)
	}
	reader := NewPeer(func(string) []string { return []string{ts.URL} }, 0)
	data, ok := reader.Get(peerKey)
	if !ok || string(data) != "compiled" {
		t.Fatalf("read-back = %q, %v", data, ok)
	}
}

// Put with no candidates (this node owns the key) is a no-op success, and
// Put against a dead owner reports the error without panicking — the
// compile path ignores it.
func TestPeerPutEdgeCases(t *testing.T) {
	own := NewPeer(func(string) []string { return nil }, 0)
	if err := own.Put(peerKey, []byte("x")); err != nil {
		t.Fatalf("self-owned put errored: %v", err)
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	dead := NewPeer(func(string) []string { return []string{url} }, 0)
	if err := dead.Put(peerKey, []byte("x")); err == nil {
		t.Fatal("put to dead owner reported success")
	}
}

// Invalid keys never touch the network.
func TestPeerRejectsInvalidKeys(t *testing.T) {
	called := false
	p := NewPeer(func(string) []string { called = true; return nil }, 0)
	if _, ok := p.Get("../../etc/passwd"); ok {
		t.Fatal("path-traversal key hit")
	}
	if err := p.Put("nested/key", []byte("x")); err == nil ||
		!strings.Contains(err.Error(), "invalid") {
		t.Fatalf("invalid key put: %v", err)
	}
	if called {
		t.Fatal("resolver consulted for invalid key")
	}
}

// The exported envelope helpers round-trip and reject tampering — the
// integrity contract the HTTP handlers rely on.
func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("some artifact")
	env := SealEnvelope(payload)
	got, ok := OpenEnvelope(env)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, %v", got, ok)
	}
	env[len(env)-1] ^= 1
	if _, ok := OpenEnvelope(env); ok {
		t.Fatal("tampered envelope verified")
	}
	if _, ok := OpenEnvelope([]byte("garbage")); ok {
		t.Fatal("garbage verified")
	}
}
