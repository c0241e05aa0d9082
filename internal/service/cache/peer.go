package cache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// PeerMaxEntryBytes caps one peer-transferred artifact. A kernel latency
// is a few bytes; anything larger than this is either corruption or a future
// artifact class that should negotiate its own limit.
const PeerMaxEntryBytes = 16 << 20

// DefaultPeerTimeout bounds every peer round trip. A slow peer must read
// as a clean miss on the compile path, never as a stall: the worst case a
// dead-but-routable peer can add to a compilation is this timeout once.
const DefaultPeerTimeout = 2 * time.Second

// Peer is the remote Store tier of a simulation fleet: Get fetches an
// artifact from the cluster member that owns the key's hash, Put pushes a
// freshly built artifact to that owner so every other member can backfill
// from it. It speaks the daemon's /cache/{key} HTTP protocol, with every
// payload wrapped in the same checksummed envelope as the disk tier — a
// corrupt, truncated, or malicious peer response fails verification and
// degrades to a miss.
//
// Peer implements Store and never returns an error from Get: unreachable,
// slow, and corrupt peers all count as misses, so the compile path's only
// possible degradation is recomputing what the peer would have supplied.
type Peer struct {
	// resolve maps a key to candidate peer base URLs in preference order
	// (typically the key's consistent-hash owner first, excluding the
	// caller itself). An empty slice means this node owns the key locally.
	resolve func(key string) []string
	client  *http.Client
	// maxCandidates bounds how many peers one Get tries before giving up.
	maxCandidates int

	hits, misses atomic.Int64
	puts         atomic.Int64
	errs         atomic.Int64
}

// NewPeer returns a peer tier that asks the given candidates for every
// key. timeout <= 0 means DefaultPeerTimeout.
func NewPeer(resolve func(key string) []string, timeout time.Duration) *Peer {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &Peer{
		resolve:       resolve,
		client:        &http.Client{Timeout: timeout},
		maxCandidates: 2,
	}
}

// Get implements Store: ask the candidate owners in order, verify the
// envelope, and treat every failure mode as a miss. A clean 404 ends the
// lookup: a putter pushes to the key's first owner other than itself, so
// under a static ring the first candidate has every entry any peer holds.
// Only a failed round trip (transport error, bad status, corrupt envelope)
// moves on to the next candidate.
func (p *Peer) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		p.misses.Add(1)
		return nil, false
	}
	cands := p.resolve(key)
	if len(cands) > p.maxCandidates {
		cands = cands[:p.maxCandidates]
	}
	for _, base := range cands {
		resp, err := p.client.Get(base + "/cache/" + key)
		if err != nil {
			p.errs.Add(1)
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, PeerMaxEntryBytes+1))
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if err != nil || resp.StatusCode != http.StatusOK || len(raw) > PeerMaxEntryBytes {
			p.errs.Add(1)
			continue
		}
		payload, ok := openEnvelope(raw)
		if !ok {
			// Corrupt response: the checksum envelope failed. Miss, and the
			// next candidate (if any) gets a chance.
			p.errs.Add(1)
			continue
		}
		p.hits.Add(1)
		return payload, true
	}
	p.misses.Add(1)
	return nil, false
}

// Put implements Store: push the sealed artifact to the key's owner,
// best-effort. A failed push only costs a future recompute on some other
// member, never correctness, so errors are reported but callers may ignore
// them.
func (p *Peer) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("cache: invalid peer key %q", key)
	}
	cands := p.resolve(key)
	if len(cands) == 0 {
		return nil // this node owns the key; the local tier already has it
	}
	req, err := http.NewRequest(http.MethodPut, cands[0]+"/cache/"+key, bytes.NewReader(sealEnvelope(data)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		p.errs.Add(1)
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		p.errs.Add(1)
		return fmt.Errorf("cache: peer %s rejected put: %s", cands[0], resp.Status)
	}
	p.puts.Add(1)
	return nil
}

// Stats implements Store.
func (p *Peer) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// NetStats reports pushes completed and transport-or-verification errors
// so far (both absent from the Store interface's hit/miss view).
func (p *Peer) NetStats() (puts, errs int64) {
	return p.puts.Load(), p.errs.Load()
}

// SealEnvelope wraps payload in the checksummed wire envelope the
// /cache/{key} protocol carries (the same format the disk tier persists).
func SealEnvelope(payload []byte) []byte { return sealEnvelope(payload) }

// OpenEnvelope verifies a wire envelope and returns its payload; ok=false
// on any corruption or version mismatch.
func OpenEnvelope(raw []byte) ([]byte, bool) { return openEnvelope(raw) }
