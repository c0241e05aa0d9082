// Command ptsimd is the simulation daemon: a long-running service that
// accepts simulation jobs over HTTP/JSON, runs them concurrently on a
// worker pool of independent TLS engines, and serves every repeated
// configuration from a content-addressed compile cache. It is the
// "simulation as a service" deployment of the framework — start it once,
// then sweep models, batch sizes, and NPU configs against it.
//
//	ptsimd -addr 127.0.0.1:8726 -workers 8 -queue 128
//
//	curl -X POST http://127.0.0.1:8726/jobs -d '{"model":"gemm","n":1024}'
//	curl http://127.0.0.1:8726/jobs/job-1
//	curl http://127.0.0.1:8726/stats
//	curl http://127.0.0.1:8726/metrics
//
// Submissions beyond the queue capacity are rejected immediately with
// HTTP 429 (the service's typed overload error), never by blocking. With
// -tenant-queue/-tenant-weights, admission and scheduling are per-tenant
// (weighted-fair, typed per-tenant 429s).
//
// As a fleet member, ptsimd joins a consistent-hash ring of peers and
// backfills measured kernel latencies (one store entry per kernel) from
// whichever peer owns their hash instead of re-measuring them:
//
//	ptsimd -addr 127.0.0.1:8726 -self http://127.0.0.1:8726 \
//	       -peers http://127.0.0.1:8727,http://127.0.0.1:8728
//
// (cmd/ptsimfleet boots a whole local fleet plus coordinator in one
// command.)
package main

import (
	"flag"
	"fmt"
	"net"
	"strings"

	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/service/cache"
)

func main() { cli.Main("ptsimd", run) }

func run() error {
	d := cli.BindDaemon(flag.CommandLine, "127.0.0.1:8726", 0)
	self := flag.String("self", "", "this node's base URL on the fleet ring (required with -peers)")
	peers := flag.String("peers", "", "comma-separated base URLs of fleet peers; enables the remote peer-cache tier")
	flag.Parse()

	svc := service.New(d.Config)
	if d.CacheDir != "" {
		if err := svc.EnableDiskCache(d.CacheDir); err != nil {
			return fmt.Errorf("opening cache dir: %w", err)
		}
		fmt.Printf("ptsimd: persistent compile cache at %s\n", d.CacheDir)
	}
	if *peers != "" {
		if *self == "" {
			return fmt.Errorf("-peers requires -self (this node's URL on the ring)")
		}
		// The ring is built over URLs: every member passes the same
		// self∪peers set (in any order), so ownership agrees fleet-wide.
		ids := append(strings.Split(*peers, ","), *self)
		for i := range ids {
			ids[i] = strings.TrimRight(strings.TrimSpace(ids[i]), "/")
		}
		ring := fleet.NewRing(ids)
		selfURL := strings.TrimRight(*self, "/")
		resolve := func(key string) []string { return ring.Peers(key, selfURL, 2) }
		svc.EnablePeerCache(cache.NewPeer(resolve, 0))
		fmt.Printf("ptsimd: fleet member %s on a ring of %d nodes\n", selfURL, len(ring.Members()))
	}
	svc.Start()
	defer svc.Close()

	return d.Serve("ptsimd", service.NewHandler(svc), func(addr net.Addr) {
		// The listening line is machine-readable on purpose: the end-to-end
		// tests (cmd/e2e, TestPtsimdMatchesPtsim) start us on an ephemeral
		// port and read the URL from it.
		fmt.Printf("ptsimd: listening on http://%s\n", addr)
		st := svc.Stats()
		fmt.Printf("ptsimd: %d workers, queue depth %d; endpoints: POST /jobs, GET /jobs/{id}, GET /jobs/{id}/events, GET /stats, GET /metrics, GET|PUT /cache/{key}\n",
			st.Workers, st.QueueDepth)
	})
}
