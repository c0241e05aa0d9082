// Package parallel maps sharded workloads onto multi-package topologies:
// it owns the parallelism strategies (data- and tensor-parallel), the
// graph transforms they need, and the placement of rank-0-normalized
// compiled artifacts onto the packages of a topo.Config — one rank per
// package, ring collectives bound around topo's snake ring order.
package parallel

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/graph"
	"repro/internal/tog"
	"repro/internal/togsim"
	"repro/internal/topo"
)

// Strategy selects how a workload spreads across packages.
type Strategy string

const (
	// None runs the whole model on one package (the single-core baseline).
	None Strategy = "none"
	// Data replicates the full graph on every package and all-reduces the
	// outputs (the gradient/output averaging shape of data parallelism).
	Data Strategy = "data"
	// Tensor shards weights across packages (Megatron-style: attention by
	// head, MLP column/row) with activation all-reduces.
	Tensor Strategy = "tensor"
)

// ParseStrategy normalizes a user-facing strategy name.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "", None, "single":
		return None, nil
	case Data:
		return Data, nil
	case Tensor:
		return Tensor, nil
	default:
		return "", fmt.Errorf("parallel: unknown strategy %q (none|data|tensor)", s)
	}
}

// DataParallel returns the per-rank replica graph of g: the graph copied
// verbatim with an all_reduce appended to every output, so each rank's
// result is the cross-rank average scaled by the replica count — the
// communication shape of synchronous data parallelism (each rank holds a
// full model; outputs/gradients all-reduce). Every rank runs the returned
// graph, making it trivially rank-0-normalized.
func DataParallel(g *graph.Graph, parts int) *graph.Graph {
	out := graph.New(g.Name + fmt.Sprintf("-dp%d", parts))
	for _, n := range g.Nodes {
		cp := *n
		cp.Inputs = append([]int(nil), n.Inputs...)
		cp.Shape = append([]int(nil), n.Shape...)
		out.Nodes = append(out.Nodes, &cp)
	}
	for _, o := range g.Outputs {
		src := out.Nodes[o]
		ar := out.Add(&graph.Node{
			Op: graph.OpAllReduce, Name: fmt.Sprintf("dp_ar_n%d", o), Parts: parts,
			Inputs: []int{src.ID}, Shape: append([]int(nil), src.Shape...),
		})
		out.Outputs = append(out.Outputs, ar.ID)
	}
	return out
}

// PlaceJobs lays one rank-0-normalized compiled artifact out across every
// package of the topology: rank r lands on core 0 of the r-th package in
// ring order, its tensors rebased into that package's address window, and
// each "peer:<x>" tensor bound to <x> on the ring predecessor's package —
// the rotation that turns one compiled schedule into P communicating
// ranks. Jobs are named "<name>.r<rank>".
func PlaceJobs(name string, comp *compiler.Compiled, tc topo.Config) ([]*togsim.Job, error) {
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	parts := tc.Packages()
	if comp.TotalBytes > uint64(1)<<tc.PkgAddrBits {
		return nil, fmt.Errorf("parallel: rank footprint %d B exceeds the %d-bit package window",
			comp.TotalBytes, tc.PkgAddrBits)
	}
	// Collectives compiled into the artifact must match the ring size.
	peers := map[string]string{}
	for _, g := range comp.TOGs {
		for _, n := range g.Nodes {
			if tog.IsCollective(n.Kind) && n.Parts != parts {
				return nil, fmt.Errorf("parallel: %s compiled for %d parts, topology %q has %d packages",
					n.Kind, n.Parts, tc.Name, parts)
			}
		}
		for _, t := range g.Tensors {
			if base, ok := compiler.IsPeerTensor(t); ok {
				if _, known := comp.Bases[base]; !known {
					return nil, fmt.Errorf("parallel: peer tensor %q references unallocated %q", t, base)
				}
				peers[t] = base
			}
		}
	}
	order := tc.RingOrder()
	jobs := make([]*togsim.Job, parts)
	for r := 0; r < parts; r++ {
		pkg := order[r]
		prev := order[(r+parts-1)%parts]
		bases := make(map[string]uint64, len(comp.Bases)+len(peers))
		for t, b := range comp.Bases {
			bases[t] = tc.PackageBase(pkg) + b
		}
		for t, base := range peers {
			bases[t] = tc.PackageBase(prev) + comp.Bases[base]
		}
		perTOG := make([]map[string]uint64, len(comp.TOGs))
		for i := range perTOG {
			perTOG[i] = bases
		}
		core := tc.CoreOf(pkg, 0)
		jobs[r] = &togsim.Job{
			Name: fmt.Sprintf("%s.r%d", name, r),
			TOGs: comp.TOGs, Bases: perTOG,
			Core: core, Src: core,
		}
	}
	return jobs, nil
}
