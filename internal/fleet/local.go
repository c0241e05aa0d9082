package fleet

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/service/cache"
)

// LocalOptions sizes an in-process fleet.
type LocalOptions struct {
	// N is the member count (default 3).
	N int
	// Workers is each member's simulation worker count (default 2).
	Workers int
	// QueueDepth/TenantQueueDepth/TenantWeights configure both the member
	// services and the coordinator identically.
	QueueDepth       int
	TenantQueueDepth int
	TenantWeights    map[string]int
	// CacheDir, when set, gives each member a persistent disk tier under
	// CacheDir/m<i> beneath its peer tier.
	CacheDir string
	// MaxCycles is each member's deadlock guard override (0 = default).
	MaxCycles int64
	// Coordinator knobs, zero = NewCoordinator defaults.
	Dispatchers    int
	HealthInterval time.Duration
	MaxAttempts    int
	// ResultFault is the coordinator's test-only fault hook.
	ResultFault func(member string, res *service.JobResult)
}

// Local is an in-process fleet: N full ptsimd services on ephemeral
// loopback ports, wired into one ring for peer caching, behind one
// coordinator. It is the compose-free demo (cmd/ptsimfleet), the chaos
// test's victim, and the crosscheck fleet oracle's subject — all the same
// code path a multi-host deployment runs, minus real network distance.
type Local struct {
	Coord *Coordinator

	members []*localMember
	killWG  sync.WaitGroup
}

type localMember struct {
	name string
	url  string
	svc  *service.Service
	srv  *http.Server

	mu     sync.Mutex
	killed bool
}

// StartLocal boots the fleet: listeners first (so every member knows the
// full ring before serving), then services with peer cache tiers, then the
// coordinator.
func StartLocal(opt LocalOptions) (*Local, error) {
	n := opt.N
	if n <= 0 {
		n = 3
	}
	if opt.Workers <= 0 {
		opt.Workers = 2
	}

	listeners := make([]net.Listener, 0, n)
	closeAll := func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}
	names := make([]string, n)
	urls := map[string]string{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("fleet: local listener: %w", err)
		}
		listeners = append(listeners, ln)
		names[i] = fmt.Sprintf("m%d", i)
		urls[names[i]] = "http://" + ln.Addr().String()
	}
	ring := NewRing(names)

	l := &Local{}
	for i := 0; i < n; i++ {
		self := names[i]
		// A member's peer tier asks the key's two nearest ring owners other
		// than itself.
		resolve := func(key string) []string {
			peers := ring.Peers(key, self, 2)
			for j, name := range peers {
				peers[j] = urls[name]
			}
			return peers
		}
		svc := service.New(service.Config{
			Workers:          opt.Workers,
			QueueDepth:       opt.QueueDepth,
			TenantQueueDepth: opt.TenantQueueDepth,
			TenantWeights:    opt.TenantWeights,
			MaxCycles:        opt.MaxCycles,
		})
		if opt.CacheDir != "" {
			if err := svc.EnableDiskCache(filepath.Join(opt.CacheDir, self)); err != nil {
				closeAll()
				l.Close()
				return nil, err
			}
		}
		svc.EnablePeerCache(cache.NewPeer(resolve, 0))
		svc.Start()
		srv := &http.Server{Handler: service.NewHandler(svc)}
		m := &localMember{name: self, url: urls[self], svc: svc, srv: srv}
		l.members = append(l.members, m)
		go srv.Serve(listeners[i])
	}

	members := make([]Member, n)
	for i, name := range names {
		members[i] = Member{Name: name, URL: urls[name]}
	}
	coord, err := NewCoordinator(Config{
		Members:          members,
		QueueDepth:       opt.QueueDepth,
		TenantQueueDepth: opt.TenantQueueDepth,
		TenantWeights:    opt.TenantWeights,
		Dispatchers:      opt.Dispatchers,
		HealthInterval:   opt.HealthInterval,
		MaxAttempts:      opt.MaxAttempts,
		ResultFault:      opt.ResultFault,
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	coord.Start()
	l.Coord = coord
	return l, nil
}

// N returns the member count.
func (l *Local) N() int { return len(l.members) }

// URL returns member i's base URL.
func (l *Local) URL(i int) string { return l.members[i].url }

// MemberName returns member i's ring name.
func (l *Local) MemberName(i int) string { return l.members[i].name }

// Service returns member i's in-process service, for tests that inspect a
// member directly (e.g. the peer-backfill pin on KernelsMeasured).
func (l *Local) Service(i int) *service.Service { return l.members[i].svc }

// OwnerIndex returns the index of the member owning key on the ring.
func (l *Local) OwnerIndex(key string) int {
	owner := l.Coord.ring.Owner(key)
	for i, m := range l.members {
		if m.name == owner {
			return i
		}
	}
	return -1
}

// KillMember abruptly stops member i's HTTP server — in-flight fleet jobs
// on it strand and must be re-dispatched by the coordinator. The member's
// service drains in the background; Close waits for it.
func (l *Local) KillMember(i int) {
	m := l.members[i]
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return
	}
	m.killed = true
	m.mu.Unlock()
	m.srv.Close()
	l.killWG.Add(1)
	go func() {
		defer l.killWG.Done()
		m.svc.Close()
	}()
}

// Close shuts the coordinator down first (draining fleet jobs), then every
// member.
func (l *Local) Close() {
	if l.Coord != nil {
		l.Coord.Close()
	}
	for i := range l.members {
		l.KillMember(i)
	}
	l.killWG.Wait()
}
