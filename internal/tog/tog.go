// Package tog defines the Tile Operation Graph (§3.7 of the paper): the
// compiler-generated representation a DNN takes for Tile-Level Simulation.
// A TOG is a structured sequence of nodes — loopBegin/loopEnd pairs,
// compute nodes carrying offline-measured tile latencies, asynchronous
// loadDMA/storeDMA nodes, and waitDMA nodes expressing compute-to-DMA
// dependencies. DMA addresses are affine expressions over the loop index
// variables, so the graph stays compact while describing every transfer.
//
// The paper serializes TOGs in a customized ONNX format; ONNX is a protobuf
// schema, so this reproduction serializes the same information as JSON with
// an ONNX-like node/attribute structure (see DESIGN.md, substitutions).
package tog

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/npu"
)

// Kind enumerates TOG node types (Fig. 4b).
type Kind string

const (
	LoopBegin Kind = "loopBegin"
	LoopEnd   Kind = "loopEnd"
	Compute   Kind = "compute"
	LoadDMA   Kind = "loadDMA"
	StoreDMA  Kind = "storeDMA"
	WaitDMA   Kind = "waitDMA"

	// Collective region markers. A collective op is lowered (ring schedule,
	// see compiler.lowerCollective) into a begin marker of one of the three
	// collective kinds, the expanded DMA/compute primitive schedule that
	// actually moves and reduces the data, and a collEnd marker. The
	// markers execute in zero cycles; the engine uses them only to
	// attribute the enclosed cycles to collective communication. Because
	// the primitives between the markers are ordinary TOG nodes, the
	// collectives run — and stay bit-identical — under the event-driven,
	// strict-tick, and parallel engines with no engine special-casing.
	AllReduce     Kind = "all_reduce"
	AllGather     Kind = "all_gather"
	ReduceScatter Kind = "reduce_scatter"
	CollEnd       Kind = "collEnd"
)

// IsCollective reports whether k is a collective region-begin marker.
func IsCollective(k Kind) bool {
	return k == AllReduce || k == AllGather || k == ReduceScatter
}

// Unit names the compute unit a compute node occupies; the paper captures
// vector and matrix unit latencies separately (§3.7).
type Unit string

const (
	UnitSA     Unit = "sa"
	UnitVector Unit = "vector"
	UnitSparse Unit = "sparse"
)

// AddrTerm is one "coefficient * loopVar" term of an affine address.
type AddrTerm struct {
	Var   string `json:"var"`
	Coeff int64  `json:"coeff"`
}

// AddrExpr is an affine address expression: Const + sum(Coeff_i * Var_i),
// added to the named tensor's base address at execution time.
type AddrExpr struct {
	Const int64      `json:"const"`
	Terms []AddrTerm `json:"terms,omitempty"`
}

// Eval computes the expression under the given loop-variable binding.
func (e AddrExpr) Eval(vars map[string]int64) (int64, error) {
	v := e.Const
	for _, t := range e.Terms {
		val, ok := vars[t.Var]
		if !ok {
			return 0, fmt.Errorf("tog: unbound loop variable %q in address", t.Var)
		}
		v += t.Coeff * val
	}
	return v, nil
}

// Node is one TOG node. Fields are used according to Kind.
type Node struct {
	ID   int  `json:"id"`
	Kind Kind `json:"kind"`

	// LoopBegin: iterate Var from Init while < Limit, advancing by Step.
	Var   string `json:"var,omitempty"`
	Init  int64  `json:"init,omitempty"`
	Limit int64  `json:"limit,omitempty"`
	Step  int64  `json:"step,omitempty"`

	// Compute: deterministic latency in cycles, or a data-dependent latency
	// key (with {var} placeholders) into the TOG's auxiliary tile-latency
	// table. Unit selects the occupied compute unit. Kernel optionally names
	// the machine-code kernel implementing the node (for functional
	// execution of the TOG through the ISA simulator).
	Cycles int64  `json:"cycles,omitempty"`
	LatKey string `json:"latKey,omitempty"`
	Unit   Unit   `json:"unit,omitempty"`
	Kernel string `json:"kernel,omitempty"`

	// DMA: transfer Desc at Tensor base + Off; Tag links to waitDMA.
	Tensor string      `json:"tensor,omitempty"`
	Desc   npu.DMADesc `json:"desc,omitempty"`
	Off    AddrExpr    `json:"off,omitempty"`
	Tag    int         `json:"tag,omitempty"`

	// DMA scratchpad-side placement (offset into the context's spad slice).
	SpadOff int64 `json:"spadOff,omitempty"`

	// Collective markers: Parts is the ring size (participating shards),
	// Payload the per-rank payload in bytes, Tensor the local buffer, and
	// Peer the declared tensor aliasing the ring predecessor's buffer
	// (bound to the neighbouring package's memory at job placement).
	// Expanded records that the lowering emitted the primitive schedule
	// between this marker and its collEnd — the engine refuses unexpanded
	// collectives rather than silently skipping the communication.
	Parts    int    `json:"parts,omitempty"`
	Payload  int64  `json:"payload,omitempty"`
	Peer     string `json:"peer,omitempty"`
	Expanded bool   `json:"expanded,omitempty"`
}

// TOG is a complete tile operation graph for one compiled kernel or model
// region, plus the auxiliary data-dependent tile latency table (§3.8).
type TOG struct {
	Name    string   `json:"name"`
	Tensors []string `json:"tensors"` // named DRAM tensors (bases bound at dispatch)
	Nodes   []Node   `json:"nodes"`

	// TileLatencies holds offline-measured latencies for data-dependent
	// compute nodes, keyed by the node's LatKey after index substitution.
	TileLatencies map[string]int64 `json:"tileLatencies,omitempty"`

	// SpadBytes is the scratchpad footprint of one context executing this
	// TOG (two tile sets for double buffering, §3.3.1).
	SpadBytes int64 `json:"spadBytes,omitempty"`
}

// Validate checks structural well-formedness: matched loops, positive trip
// counts, DMA tensors declared, and waitDMA tags preceded by a DMA with the
// same tag in the same or an enclosing scope.
func (g *TOG) Validate() error {
	depth := 0
	vars := map[string]bool{}
	tensors := map[string]bool{}
	for _, t := range g.Tensors {
		tensors[t] = true
	}
	seenTags := map[int]bool{}
	inColl, collDepth := false, 0
	var loopStack []string
	for i, n := range g.Nodes {
		switch n.Kind {
		case LoopBegin:
			if n.Var == "" {
				return fmt.Errorf("tog: node %d: loopBegin without variable", i)
			}
			if vars[n.Var] {
				return fmt.Errorf("tog: node %d: loop variable %q shadows an active loop", i, n.Var)
			}
			if n.Step <= 0 || n.Limit < n.Init {
				return fmt.Errorf("tog: node %d: loop %q has invalid bounds [%d,%d) step %d", i, n.Var, n.Init, n.Limit, n.Step)
			}
			vars[n.Var] = true
			loopStack = append(loopStack, n.Var)
			depth++
		case LoopEnd:
			if depth == 0 {
				return fmt.Errorf("tog: node %d: loopEnd without loopBegin", i)
			}
			depth--
			delete(vars, loopStack[len(loopStack)-1])
			loopStack = loopStack[:len(loopStack)-1]
		case Compute:
			if n.Cycles <= 0 && n.LatKey == "" {
				return fmt.Errorf("tog: node %d: compute without latency", i)
			}
			if n.Unit == "" {
				return fmt.Errorf("tog: node %d: compute without unit", i)
			}
		case LoadDMA, StoreDMA:
			if !tensors[n.Tensor] {
				return fmt.Errorf("tog: node %d: DMA references undeclared tensor %q", i, n.Tensor)
			}
			if err := n.Desc.Validate(); err != nil {
				return fmt.Errorf("tog: node %d: %w", i, err)
			}
			for _, t := range n.Off.Terms {
				if !vars[t.Var] {
					return fmt.Errorf("tog: node %d: address uses inactive loop var %q", i, t.Var)
				}
			}
			seenTags[n.Tag] = true
		case WaitDMA:
			if !seenTags[n.Tag] {
				return fmt.Errorf("tog: node %d: waitDMA on tag %d with no preceding DMA", i, n.Tag)
			}
		case AllReduce, AllGather, ReduceScatter:
			if inColl {
				return fmt.Errorf("tog: node %d: nested collective", i)
			}
			if n.Parts < 2 {
				return fmt.Errorf("tog: node %d: collective over %d parts", i, n.Parts)
			}
			if n.Payload < 4 {
				return fmt.Errorf("tog: node %d: collective payload %d bytes", i, n.Payload)
			}
			if !tensors[n.Tensor] {
				return fmt.Errorf("tog: node %d: collective references undeclared tensor %q", i, n.Tensor)
			}
			if n.Peer != "" && !tensors[n.Peer] {
				return fmt.Errorf("tog: node %d: collective references undeclared peer tensor %q", i, n.Peer)
			}
			inColl, collDepth = true, depth
		case CollEnd:
			if !inColl {
				return fmt.Errorf("tog: node %d: collEnd without a collective begin", i)
			}
			if depth != collDepth {
				return fmt.Errorf("tog: node %d: collEnd crosses loop boundaries", i)
			}
			inColl = false
		default:
			return fmt.Errorf("tog: node %d: unknown kind %q", i, n.Kind)
		}
	}
	if depth != 0 {
		return fmt.Errorf("tog: %d unclosed loops", depth)
	}
	if inColl {
		return fmt.Errorf("tog: unclosed collective region")
	}
	return nil
}

// SubstituteKey replaces "{var}" placeholders in a latency key with the
// current loop variable values.
func SubstituteKey(key string, vars map[string]int64) string {
	if !strings.Contains(key, "{") {
		return key
	}
	out := key
	for v, val := range vars {
		out = strings.ReplaceAll(out, "{"+v+"}", strconv.FormatInt(val, 10))
	}
	return out
}

// Stats summarizes a TOG by fully accounting loop trip counts (without
// simulating): total compute cycles (sum of node latencies), DMA bytes, and
// node execution counts.
type Stats struct {
	ComputeNodes  int64
	LoadNodes     int64
	StoreNodes    int64
	WaitNodes     int64
	ComputeCycles int64
	LoadBytes     int64
	StoreBytes    int64
}

// CollectStats walks the TOG, expanding loops, and accumulates totals.
// Data-dependent compute nodes contribute their table latencies.
// Collective markers are zero-cycle; the primitives they enclose are
// counted as ordinary nodes.
func (g *TOG) CollectStats() (Stats, error) {
	var s Stats
	err := g.Walk(func(n *Node, vars map[string]int64) error {
		switch n.Kind {
		case Compute:
			s.ComputeNodes++
			lat := n.Cycles
			if n.LatKey != "" {
				key := SubstituteKey(n.LatKey, vars)
				l, ok := g.TileLatencies[key]
				if !ok {
					return fmt.Errorf("tog: missing tile latency for key %q", key)
				}
				lat = l
			}
			s.ComputeCycles += lat
		case LoadDMA:
			s.LoadNodes++
			s.LoadBytes += int64(n.Desc.TotalBytes())
		case StoreDMA:
			s.StoreNodes++
			s.StoreBytes += int64(n.Desc.TotalBytes())
		case WaitDMA:
			s.WaitNodes++
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	return s, nil
}

// Walk expands the TOG's loops and calls visit for every non-loop node
// instance in program order, with the active loop bindings in vars. vars
// is valid only during the call. A loop whose Init is not below its Limit
// visits nothing. A visitor error or an unmatched loopBegin stops the walk
// and is returned.
func (g *TOG) Walk(visit func(n *Node, vars map[string]int64) error) error {
	vars := map[string]int64{}
	var walk func(from, to int) error
	walk = func(from, to int) error {
		for i := from; i < to; i++ {
			n := &g.Nodes[i]
			switch n.Kind {
			case LoopBegin:
				end, err := g.MatchEnd(i)
				if err != nil {
					return err
				}
				for v := n.Init; v < n.Limit; v += n.Step {
					vars[n.Var] = v
					if err := walk(i+1, end); err != nil {
						return err
					}
				}
				delete(vars, n.Var)
				i = end
			case LoopEnd:
				// Reached only unmatched; MatchEnd skips matched ones.
			default:
				if err := visit(n, vars); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(0, len(g.Nodes))
}

// MatchEnd returns the index of the loopEnd matching the loopBegin at
// begin. It is the one loop matcher: Walk and the TLS engine's resumable
// interpreter both call it.
func (g *TOG) MatchEnd(begin int) (int, error) {
	depth := 0
	for j := begin; j < len(g.Nodes); j++ {
		switch g.Nodes[j].Kind {
		case LoopBegin:
			depth++
		case LoopEnd:
			depth--
			if depth == 0 {
				return j, nil
			}
		}
	}
	return 0, fmt.Errorf("tog: unmatched loopBegin at node %d", begin)
}

// MarshalJSON round-trip helpers -------------------------------------------

// Encode serializes the TOG to its JSON wire form.
func Encode(g *TOG) ([]byte, error) {
	return json.MarshalIndent(g, "", " ")
}

// Decode parses a TOG from JSON and validates it.
func Decode(data []byte) (*TOG, error) {
	var g TOG
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("tog: decode: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}
