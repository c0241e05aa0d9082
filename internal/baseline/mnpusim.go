package baseline

import (
	"bufio"
	"fmt"
	"os"
	"strconv"

	"repro/internal/npu"
)

// MNPUSim is the mNPUsim-class model: tile-by-tile execution where every
// tile's memory access addresses are first written to an intermediate trace
// file and then read back for the memory simulation — reproducing the
// file-based data flow the paper identifies as mNPUsim's bottleneck
// (§4.3). It supports GEMM/CONV only and batch size one.
type MNPUSim struct {
	Cfg npu.Config
	// TraceDir is where intermediate traces are staged ("" = os temp dir).
	TraceDir string
	// MemLatency is the fixed DRAM latency (no row-buffer model).
	MemLatency int64
}

// Run simulates the layers, returning total cycles. Every tile's trace is
// staged through a file as in the original, so Run's wall time carries its
// file traffic (Fig. 6). Layers from batch sizes > 1 are rejected like the
// original.
func (m MNPUSim) Run(layers []Layer) (int64, error) { return m.run(layers, true) }

// Cycles returns the cycles Run reports without the file round trip. The
// replay's timing depends only on how many accesses a tile traces, so the
// accuracy study (Fig. 5) counts them in memory.
func (m MNPUSim) Cycles(layers []Layer) (int64, error) { return m.run(layers, false) }

func (m MNPUSim) run(layers []Layer, staged bool) (int64, error) {
	var total int64
	for i, l := range layers {
		if l.Kind == KindConv && l.Conv.N > 1 {
			return 0, fmt.Errorf("baseline: mnpusim supports only batch size 1 (layer %d has N=%d)", i, l.Conv.N)
		}
		c, err := m.layer(l, staged)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (m MNPUSim) layer(l Layer, staged bool) (int64, error) {
	core := m.Cfg.Core
	tile := core.SARows
	burst := int64(m.Cfg.Mem.BurstBytes)
	memLat := m.MemLatency
	if memLat == 0 {
		memLat = 60
	}
	bytesPerCycle := int64(m.Cfg.Mem.Channels * m.Cfg.Mem.BurstBytes)

	var cycles int64
	// Tile loops: for each (mo, no, ko) tile, trace its access addresses
	// (through the trace file when staged), then replay them against the
	// latency model.
	for mo := 0; mo < l.M; mo += tile {
		for no := 0; no < l.N; no += tile {
			for ko := 0; ko < l.K; ko += tile {
				mt := minI(tile, l.M-mo)
				kt := minI(tile, l.K-ko)
				nt := minI(tile, l.N-no)
				trace := func(emit func(addr int64)) {
					// A tile addresses.
					for r := 0; r < mt; r++ {
						rowBase := int64(mo+r)*int64(l.K)*4 + int64(ko)*4
						for b := int64(0); b < int64(kt)*4; b += burst {
							emit(rowBase + b)
						}
					}
					// B tile addresses.
					bBase := int64(1) << 30
					for r := 0; r < kt; r++ {
						rowBase := bBase + int64(ko+r)*int64(l.N)*4 + int64(no)*4
						for b := int64(0); b < int64(nt)*4; b += burst {
							emit(rowBase + b)
						}
					}
					// C tile writeback addresses.
					cBase := int64(1) << 31
					for r := 0; r < mt; r++ {
						rowBase := cBase + int64(mo+r)*int64(l.N)*4 + int64(no)*4
						for b := int64(0); b < int64(nt)*4; b += burst {
							emit(rowBase + b)
						}
					}
				}
				var accesses int64
				if staged {
					n, err := m.stage(trace)
					if err != nil {
						return 0, err
					}
					accesses = n
				} else {
					trace(func(int64) { accesses++ })
				}
				// Replay: every access walks the fixed-latency memory model
				// cycle by cycle (a single-access-in-flight pipeline per
				// access stream, like the original's per-access simulation).
				var memCycles int64
				outstanding := int64(0)
				for i := int64(0); i < accesses; i++ {
					outstanding += burst
					for outstanding >= bytesPerCycle {
						outstanding -= bytesPerCycle
						memCycles++
					}
				}
				memCycles += memLat
				computeCycles := ceil64(int64(mt)*int64(kt)*int64(nt), core.MACsPerCycle())
				// mNPUsim overlaps double-buffered DMAs with compute.
				tileCycles := memCycles
				if computeCycles > tileCycles {
					tileCycles = computeCycles
				}
				cycles += tileCycles
			}
		}
	}
	return cycles, nil
}

// stage writes a tile's access trace to an intermediate file, reads it
// back, and returns the number of accesses replayed. Like the original,
// each address is written to the trace file individually (the "frequent
// filesystem access" the paper identifies as mNPUsim's bottleneck, §4.3).
func (m MNPUSim) stage(trace func(emit func(addr int64))) (int64, error) {
	f, err := os.CreateTemp(m.TraceDir, "mnpusim-trace-*.txt")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var werr error
	trace(func(addr int64) { // one write syscall each
		if werr == nil {
			_, werr = fmt.Fprintln(f, addr)
		}
	})
	if werr != nil {
		return 0, werr
	}
	if _, err := f.Seek(0, 0); err != nil {
		return 0, err
	}
	var n int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if _, err := strconv.ParseInt(sc.Text(), 10, 64); err != nil {
			return 0, err
		}
		n++
	}
	return n, sc.Err()
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
