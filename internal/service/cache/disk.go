package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// diskVersion names the on-disk layout; entries live under <dir>/<version>/
// so an incompatible future layout simply starts a fresh subtree and old
// entries become unreachable rather than misread.
const diskVersion = "v1"

// diskMagic is the first line of every entry file. Bumping it invalidates
// all existing entries (treated as misses) without touching the directory
// layout — the envelope-schema analogue of diskVersion.
const diskMagic = "ptsimc1"

// Disk is the persistent Store tier: one file per key under a versioned
// directory, each wrapped in a checksummed envelope
//
//	ptsimc1\n<sha256 hex of payload>\n<payload>
//
// so torn writes, manual edits, and entries from incompatible versions are
// detected on read and treated as misses. Writes go to a temp file in the
// same directory and rename into place, which is atomic on POSIX — a
// crashed writer can leave a stray .tmp file but never a half-visible
// entry.
type Disk struct {
	root string // <dir>/<diskVersion>

	hits, misses atomic.Int64
}

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	root := filepath.Join(dir, diskVersion)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating %s: %w", root, err)
	}
	return &Disk{root: root}, nil
}

// path maps a key to its entry file, sharding by the last two key bytes to
// keep directories small (keys share a format prefix, but end in hash
// digits). Anything that could escape the root is rejected by validKey.
func (s *Disk) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[len(key)-2:]
	}
	return filepath.Join(s.root, shard, key)
}

func validKey(key string) bool {
	if key == "" || len(key) > 256 {
		return false
	}
	return !strings.ContainsAny(key, "/\\:\x00") && key != "." && key != ".."
}

// Get implements Store: any unreadable, truncated, corrupt, or
// wrong-version entry is a miss.
func (s *Disk) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.misses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok := openEnvelope(raw)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put implements Store.
func (s *Disk) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("cache: invalid store key %q", key)
	}
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("cache: creating shard dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), key+".tmp*")
	if err != nil {
		return fmt.Errorf("cache: creating temp entry: %w", err)
	}
	_, werr := tmp.Write(sealEnvelope(data))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("cache: writing entry: %w", werr)
		}
		return fmt.Errorf("cache: closing entry: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: publishing entry: %w", err)
	}
	return nil
}

// Stats implements Store.
func (s *Disk) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// sealEnvelope wraps a payload in the magic + checksum header.
func sealEnvelope(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	b.Grow(len(diskMagic) + 1 + hex.EncodedLen(len(sum)) + 1 + len(payload))
	b.WriteString(diskMagic)
	b.WriteByte('\n')
	b.WriteString(hex.EncodeToString(sum[:]))
	b.WriteByte('\n')
	b.Write(payload)
	return b.Bytes()
}

// openEnvelope verifies the header and checksum, returning the payload.
func openEnvelope(raw []byte) ([]byte, bool) {
	rest, ok := strings.CutPrefix(string(raw), diskMagic+"\n")
	if !ok {
		return nil, false
	}
	sumHex, payload, ok := strings.Cut(rest, "\n")
	if !ok {
		return nil, false
	}
	want, err := hex.DecodeString(sumHex)
	if err != nil || len(want) != sha256.Size {
		return nil, false
	}
	got := sha256.Sum256([]byte(payload))
	if !bytes.Equal(got[:], want) {
		return nil, false
	}
	return []byte(payload), true
}
