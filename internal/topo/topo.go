// Package topo describes the full hardware hierarchy of a scale-out NPU
// system as one validated tree: core ×N → package (cores + local HBM stack
// behind the on-package NoC) ×M → mesh (packages connected by narrow
// chiplet-style off-package links). The single-package machine and the
// §5.4 two-chiplet NPU are the M=1 and M=2 degenerate cases of the same
// config — internal/chiplet is now a thin shim over this package, and
// exp/fig9 reproduces its pre-refactor cycle counts bit-identically
// through it (see the equivalence tests).
//
// A Config is pure data: it can be named by a preset ("pkg2", "mesh2x2"),
// embedded in a job spec, and hashed into compile-cache keys. The timing
// model lives in Fabric (fabric.go).
package topo

import (
	"fmt"

	"repro/internal/npu"
)

// Config is the topology tree: MeshX×MeshY packages, each owning
// CoresPerPackage cores and one local HBM stack of MemPerPackage, joined
// by per-direction off-package links routed X-then-Y through the mesh.
type Config struct {
	// Name is the preset name this config was resolved from ("" when built
	// by hand). Purely descriptive.
	Name string `json:"name,omitempty"`

	// Mesh shape: MeshX*MeshY packages, package p at grid position
	// (p % MeshX, p / MeshX).
	MeshX int `json:"mesh_x"`
	MeshY int `json:"mesh_y"`

	// CoresPerPackage: engine core c belongs to package c/CoresPerPackage.
	CoresPerPackage int `json:"cores_per_package"`

	// MemPerPackage is one package's local HBM stack.
	MemPerPackage npu.MemConfig `json:"mem_per_package"`

	// PkgAddrBits: the DRAM address bit selecting the package; each package
	// owns 1<<PkgAddrBits bytes of the global physical address space.
	PkgAddrBits uint `json:"pkg_addr_bits"`

	// Off-package link parameters (per direction, per mesh edge). The §5.4
	// paper values are 19 cycles and 34 B/cycle at 940 MHz.
	LinkLatency       int64 `json:"link_latency"`
	LinkBytesPerCycle int64 `json:"link_bytes_per_cycle"`
}

// Packages returns the package count of the mesh.
func (c Config) Packages() int { return c.MeshX * c.MeshY }

// TotalCores returns the engine core count the topology describes.
func (c Config) TotalCores() int { return c.Packages() * c.CoresPerPackage }

// Validate rejects malformed trees.
func (c Config) Validate() error {
	if c.MeshX < 1 || c.MeshY < 1 {
		return fmt.Errorf("topo: mesh %dx%d must have positive dimensions", c.MeshX, c.MeshY)
	}
	if c.CoresPerPackage < 1 {
		return fmt.Errorf("topo: %d cores per package", c.CoresPerPackage)
	}
	if c.PkgAddrBits < 16 || c.PkgAddrBits > 48 {
		return fmt.Errorf("topo: package address bits %d outside [16,48]", c.PkgAddrBits)
	}
	// Each package owns 1<<PkgAddrBits bytes of a 64-bit address space.
	// Comparing by division keeps an oversized mesh from overflowing.
	if limit := 1 << (64 - c.PkgAddrBits); c.MeshX > limit/c.MeshY {
		return fmt.Errorf("topo: mesh %dx%d exceeds the %d packages of the address space", c.MeshX, c.MeshY, limit)
	}
	if c.MemPerPackage.Channels < 1 {
		return fmt.Errorf("topo: package memory needs at least one channel")
	}
	if c.Packages() > 1 {
		if c.LinkLatency < 0 {
			return fmt.Errorf("topo: negative link latency %d", c.LinkLatency)
		}
		if c.LinkBytesPerCycle < 1 {
			return fmt.Errorf("topo: link bandwidth %d B/cycle must be positive", c.LinkBytesPerCycle)
		}
	}
	return nil
}

// PackageBase returns the DRAM base address of package p's local stack.
func (c Config) PackageBase(p int) uint64 { return uint64(p) << c.PkgAddrBits }

// PackageOf returns the package owning a global DRAM address (clamped to
// the last package, matching the pre-topology chiplet fabric).
func (c Config) PackageOf(addr uint64) int {
	p := int(addr >> c.PkgAddrBits)
	if p >= c.Packages() {
		p = c.Packages() - 1
	}
	return p
}

// LocalOff returns the offset of a global address within its package stack.
func (c Config) LocalOff(addr uint64) uint64 { return addr & (1<<c.PkgAddrBits - 1) }

// PackageOfCore returns the package owning engine core `core` (clamped).
func (c Config) PackageOfCore(core int) int {
	p := core / c.CoresPerPackage
	if p >= c.Packages() {
		p = c.Packages() - 1
	}
	return p
}

// CoreOf returns the engine core index of package p's i-th core.
func (c Config) CoreOf(p, i int) int { return p*c.CoresPerPackage + i }

// coord returns package p's mesh grid position.
func (c Config) coord(p int) (x, y int) { return p % c.MeshX, p / c.MeshX }

// Route returns the directed package sequence from a to b under
// deterministic X-then-Y mesh routing: a, every intermediate hop, b.
// len(Route(a,b)) - 1 is the hop count; Route(a,a) is {a}.
func (c Config) Route(a, b int) []int {
	ax, ay := c.coord(a)
	bx, by := c.coord(b)
	path := []int{a}
	x, y := ax, ay
	for x != bx {
		if x < bx {
			x++
		} else {
			x--
		}
		path = append(path, y*c.MeshX+x)
	}
	for y != by {
		if y < by {
			y++
		} else {
			y--
		}
		path = append(path, y*c.MeshX+x)
	}
	return path
}

// RingOrder returns the package indices in collective-ring order: a snake
// over the mesh rows, so every consecutive pair is one hop apart (the
// wrap-around pair is one hop on multi-row meshes and crosses the chain on
// 1×N ones). mesh2x2 yields [0 1 3 2].
func (c Config) RingOrder() []int {
	order := make([]int, 0, c.Packages())
	for y := 0; y < c.MeshY; y++ {
		if y%2 == 0 {
			for x := 0; x < c.MeshX; x++ {
				order = append(order, y*c.MeshX+x)
			}
		} else {
			for x := c.MeshX - 1; x >= 0; x-- {
				order = append(order, y*c.MeshX+x)
			}
		}
	}
	return order
}

// RingPrev returns the package preceding package p in ring order — the
// neighbour a pull-based ring collective reads from.
func (c Config) RingPrev(p int) int {
	order := c.RingOrder()
	for i, q := range order {
		if q == p {
			return order[(i-1+len(order))%len(order)]
		}
	}
	return p
}

// Preset resolves a named topology against a base machine's memory system:
// the base HBM channels are divided evenly across packages (minimum one
// channel each), matching how the §5.4 study splits the monolithic stack.
//
//	single         1 package (no links)
//	pkg2           1x2 packages — the §5.4 two-chiplet configuration
//	meshXxY        X*Y packages, e.g. mesh2x2, mesh1x4
func Preset(name string, mem npu.MemConfig) (Config, error) {
	c := Config{
		Name:              name,
		CoresPerPackage:   1,
		PkgAddrBits:       32,
		LinkLatency:       19,
		LinkBytesPerCycle: 34,
	}
	switch name {
	case "single":
		c.MeshX, c.MeshY = 1, 1
	case "pkg2":
		c.MeshX, c.MeshY = 1, 2
	default:
		var x, y int
		if n, err := fmt.Sscanf(name, "mesh%dx%d", &x, &y); err != nil || n != 2 || x < 1 || y < 1 {
			return Config{}, fmt.Errorf("topo: unknown topology %q (single, pkg2, meshXxY)", name)
		}
		c.MeshX, c.MeshY = x, y
	}
	c.MemPerPackage = mem
	c.MemPerPackage.Channels = 1
	// A mesh too large for the address space overflows Packages(); Validate
	// rejects it below.
	if p := c.Packages(); p >= 1 && mem.Channels/p >= 1 {
		c.MemPerPackage.Channels = mem.Channels / p
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
