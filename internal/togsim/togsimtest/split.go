// Package togsimtest holds test helpers for code built on togsim.
package togsimtest

import "repro/internal/togsim"

// BurstSplitter wraps a fabric and hands it each request as a sequence of
// single-burst requests, burst k starting k·burst bytes after the
// request's address. It reports a request complete once its last burst
// has completed. Tests use it to check that results do not depend on
// request size, and to drive fabrics written for one-burst requests.
type BurstSplitter struct {
	togsim.Fabric
	burst int

	owner   map[*togsim.MemReq]*togsim.MemReq   // burst -> its request
	left    map[*togsim.MemReq]int              // request -> bursts not completed
	refused map[*togsim.MemReq][]*togsim.MemReq // request -> bursts not yet accepted
	done    []*togsim.MemReq
}

// NewBurstSplitter wraps f, splitting requests at burst bytes.
func NewBurstSplitter(f togsim.Fabric, burst int) *BurstSplitter {
	return &BurstSplitter{
		Fabric:  f,
		burst:   burst,
		owner:   map[*togsim.MemReq]*togsim.MemReq{},
		left:    map[*togsim.MemReq]int{},
		refused: map[*togsim.MemReq][]*togsim.MemReq{},
	}
}

// Submit implements togsim.Fabric: it submits r's bursts in order and, at
// the first refusal, keeps the rest for the retry of r.
func (s *BurstSplitter) Submit(r *togsim.MemReq) bool {
	q, retry := s.refused[r]
	if !retry {
		for off := 0; off < r.Bytes; off += s.burst {
			b := &togsim.MemReq{Addr: r.Addr + uint64(off), Bytes: min(s.burst, r.Bytes-off),
				IsWrite: r.IsWrite, Src: r.Src, Core: r.Core}
			s.owner[b] = r
			q = append(q, b)
		}
		s.left[r] = len(q)
	}
	for ; len(q) > 0; q = q[1:] {
		if !s.Fabric.Submit(q[0]) {
			s.refused[r] = q
			return false
		}
	}
	delete(s.refused, r)
	return true
}

// Completed implements togsim.Fabric.
func (s *BurstSplitter) Completed() []*togsim.MemReq {
	s.done = s.done[:0]
	for _, b := range s.Fabric.Completed() {
		r := s.owner[b]
		delete(s.owner, b)
		if s.left[r]--; s.left[r] == 0 {
			delete(s.left, r)
			s.done = append(s.done, r)
		}
	}
	return s.done
}
