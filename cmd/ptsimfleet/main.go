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

	"repro/internal/cli"
	"repro/internal/fleet"
)

func main() { cli.Main("ptsimfleet", run) }

func run() error {
	d := cli.BindDaemon(flag.CommandLine, "127.0.0.1:8730", 2)
	n := flag.Int("n", 3, "fleet member count")
	flag.Parse()

	c := d.Config
	fl, err := fleet.StartLocal(fleet.LocalOptions{
		N: *n, Workers: c.Workers, QueueDepth: c.QueueDepth,
		TenantQueueDepth: c.TenantQueueDepth, TenantWeights: c.TenantWeights,
		MaxCycles: c.MaxCycles, CacheDir: d.CacheDir,
	})
	if err != nil {
		return err
	}
	defer fl.Close()

	return d.Serve("ptsimfleet", fleet.NewHandler(fl.Coord), func(addr net.Addr) {
		// These lines are machine-readable on purpose: the end-to-end tests
		// (cmd/e2e, TestPtsimfleetPeerCacheAndDrain) start us on an
		// ephemeral port and read the coordinator and member URLs from them.
		fmt.Printf("ptsimfleet: coordinator on http://%s\n", addr)
		for i := 0; i < fl.N(); i++ {
			fmt.Printf("ptsimfleet: member %s on %s\n", fl.MemberName(i), fl.URL(i))
		}
		fmt.Printf("ptsimfleet: endpoints: POST /jobs, GET /jobs/{id}, GET /jobs/{id}/events, GET /stats, GET /metrics, GET /members\n")
	})
}
