// Command ptsimfleet is the compose-free fleet demo: it boots N full
// ptsimd member services on ephemeral loopback ports, wires them into one
// consistent-hash ring (so every member backfills compiled artifacts from
// the peer owning their hash), and serves the sharding coordinator's HTTP
// API on -addr. One command, a whole sharded simulation fleet:
//
//	ptsimfleet -n 3 -addr 127.0.0.1:8730
//
//	curl -X POST http://127.0.0.1:8730/jobs -d '{"model":"gemm","n":64,"tenant":"team-a"}'
//	curl http://127.0.0.1:8730/jobs/f1
//	curl http://127.0.0.1:8730/stats      # fleet + merged member stats
//	curl http://127.0.0.1:8730/metrics    # ptsimfleet_* aggregated exposition
//	curl http://127.0.0.1:8730/members    # ring membership + liveness
//
// Jobs route by the content hash of their compiled configuration:
// identical work always lands on the same member's warm cache, and a
// member that dies mid-batch has its jobs re-dispatched to survivors.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fleet"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ptsimfleet:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 3, "fleet member count")
	addr := flag.String("addr", "127.0.0.1:8730", "coordinator listen address (port 0 = ephemeral)")
	workers := flag.Int("workers", 2, "simulation workers per member")
	queue := flag.Int("queue", 64, "queue capacity (coordinator and each member)")
	tenantQueue := flag.Int("tenant-queue", 0, "per-tenant queue capacity (0 = no per-tenant bound)")
	tenantWeights := flag.String("tenant-weights", "", `weighted-fair tenant shares, e.g. "team-a=3,team-b=1"`)
	maxCycles := flag.Int64("max-cycles", 0, "per-job deadlock guard in simulated cycles (0 = package default)")
	cacheDir := flag.String("cache-dir", "", "persist each member's compile cache under <dir>/m<i>")
	flag.Parse()

	weights, err := service.ParseTenantWeights(*tenantWeights)
	if err != nil {
		return err
	}
	fl, err := fleet.StartLocal(fleet.LocalOptions{
		N: *n, Workers: *workers, QueueDepth: *queue,
		TenantQueueDepth: *tenantQueue, TenantWeights: weights,
		MaxCycles: *maxCycles, CacheDir: *cacheDir,
	})
	if err != nil {
		return err
	}
	defer fl.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// These lines are machine-readable on purpose: scripts/fleet_smoke.sh
	// starts us on an ephemeral port and scrapes the coordinator and member
	// URLs from them.
	fmt.Printf("ptsimfleet: coordinator on http://%s\n", ln.Addr())
	for i := 0; i < fl.N(); i++ {
		fmt.Printf("ptsimfleet: member %s on %s\n", fl.MemberName(i), fl.URL(i))
	}
	fmt.Printf("ptsimfleet: endpoints: POST /jobs, GET /jobs/{id}, GET /jobs/{id}/events, GET /stats, GET /metrics, GET /members\n")

	srv := &http.Server{Handler: fleet.NewHandler(fl.Coord)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("ptsimfleet: %v, draining\n", s)
		srv.Close()
		return nil
	}
}
