package npu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// The span moves (LoadSpan/StoreSpan and the DMA row copies built on them)
// replace per-word loops. These tests hold them to those loops on random
// memories: the same words loaded, the same memory left behind, and the same
// panic message at the same word, with the words before it already moved.

// spanSpadBytes is the scratchpad size of the span tests: three whole pages
// and a partial fourth, so spans run off a page boundary and off the end.
const spanSpadBytes = 3*spadPageWords*4 + 12

// lastDRAMPage is the DRAM page just below isa.SpadBase, where spans cross
// into the scratchpad.
const lastDRAMPage = isa.SpadBase/pageBytes - 1

// seededSpace returns an address space whose contents are a function of
// seed: some DRAM and scratchpad pages hold data, the rest were never
// written.
func seededSpace(seed int64) AddressSpace {
	r := rand.New(rand.NewSource(seed))
	a := AddressSpace{DRAM: NewPagedMem(), Spad: NewScratchpad(spanSpadBytes)}
	for _, pn := range []uint64{0, 1, 2, lastDRAMPage} {
		if r.Intn(2) == 0 {
			continue
		}
		for i := 0; i < 64; i++ {
			a.DRAM.StoreW(pn*pageBytes+4*uint64(r.Intn(pageWords)), r.Uint32())
		}
	}
	for pn := 0; pn*spadPageWords*4 < spanSpadBytes; pn++ {
		if r.Intn(2) == 0 {
			continue
		}
		for i := 0; i < 64; i++ {
			w := pn*spadPageWords + r.Intn(spadPageWords)
			if w < spanSpadBytes/4 {
				a.Spad.StoreW(isa.SpadBase+4*uint64(w), r.Uint32())
			}
		}
	}
	return a
}

// spanAddr draws a span start: near a DRAM or scratchpad page boundary,
// just below isa.SpadBase, near the scratchpad's end, or anywhere in the
// first DRAM pages; one in eight is misaligned.
func spanAddr(r *rand.Rand) uint64 {
	near := func(base uint64, words int) uint64 { return base + 4*uint64(r.Intn(2*words+1)) - 4*uint64(words) }
	var addr uint64
	switch r.Intn(6) {
	case 0:
		addr = near(uint64(1+r.Intn(2))*pageBytes, 16)
	case 1:
		addr = isa.SpadBase - 4*uint64(r.Intn(64))
	case 2:
		addr = near(isa.SpadBase+uint64(1+r.Intn(3))*spadPageWords*4, 16)
	case 3:
		addr = isa.SpadBase + spanSpadBytes - 4*uint64(r.Intn(64))
	case 4:
		addr = isa.SpadBase + 4*uint64(r.Intn(spanSpadBytes/4))
	default:
		addr = 4 * uint64(r.Intn(3*pageWords))
	}
	if r.Intn(8) == 0 {
		addr += 2
	}
	return addr
}

// spanLen draws a span length: empty, short, or long enough to cross a DRAM
// page (pageWords words).
func spanLen(r *rand.Rand) int {
	switch r.Intn(4) {
	case 0:
		return r.Intn(2)
	case 1:
		return 1 + r.Intn(64)
	case 2:
		return 1 + r.Intn(2*spadPageWords)
	default:
		return 1 + r.Intn(pageWords+2*spadPageWords)
	}
}

// catch runs f and returns what it panicked with, or nil.
func catch(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

// floatMem is the per-word interface all three memories offer.
type floatMem interface {
	LoadF(addr uint64) float32
	StoreF(addr uint64, v float32)
}

func perWordLoad(m floatMem, addr uint64, dst []float32) {
	for i := range dst {
		dst[i] = m.LoadF(addr + uint64(4*i))
	}
}

func perWordStore(m floatMem, addr uint64, src []float32) {
	for i, v := range src {
		m.StoreF(addr+uint64(4*i), v)
	}
}

// sameSpace fails unless a and b hold the same pages with the same words.
func sameSpace(t *testing.T, what string, a, b AddressSpace) {
	t.Helper()
	if len(a.DRAM.pages) != len(b.DRAM.pages) {
		t.Fatalf("%s: %d DRAM pages, per-word path has %d", what, len(a.DRAM.pages), len(b.DRAM.pages))
	}
	for pn, p := range a.DRAM.pages {
		q, ok := b.DRAM.pages[pn]
		if !ok {
			t.Fatalf("%s: DRAM page %d allocated only by the span path", what, pn)
		}
		for i := range p {
			if p[i] != q[i] {
				t.Fatalf("%s: DRAM word %#x = %#x, per-word path %#x", what, pn*pageBytes+4*uint64(i), p[i], q[i])
			}
		}
	}
	for pn, p := range a.Spad.pages {
		q := b.Spad.pages[pn]
		if (p == nil) != (q == nil) {
			t.Fatalf("%s: scratchpad page %d allocated by one path only (span %v)", what, pn, p != nil)
		}
		if p != nil && *p != *q {
			t.Fatalf("%s: scratchpad page %d differs", what, pn)
		}
	}
}

// sameWords fails unless got and want hold the same bits.
func sameWords(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: word %d = %#x, per-word path %#x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestSpanMatchesPerWord drives LoadSpan and StoreSpan on all three
// memories against LoadF/StoreF loops over the same span.
func TestSpanMatchesPerWord(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	panics := 0
	for iter := 0; iter < 600; iter++ {
		seed := r.Int63()
		addr, n := spanAddr(r), spanLen(r)
		store := r.Intn(2) == 0
		span, word := seededSpace(seed), seededSpace(seed)
		// The memory the span targets: the whole address space, or one of
		// its regions on its own (a DRAM span may reach past isa.SpadBase, a
		// scratchpad span may start below it).
		var wm floatMem = word
		load, save := span.LoadSpan, span.StoreSpan
		switch iter % 3 {
		case 1:
			wm, load, save = word.DRAM, span.DRAM.LoadSpan, span.DRAM.StoreSpan
		case 2:
			wm, load, save = word.Spad, span.Spad.LoadSpan, span.Spad.StoreSpan
		}
		what := fmt.Sprintf("iter %d (%T) addr %#x n %d store %v", iter, wm, addr, n, store)

		var got, want any
		if store {
			src := make([]float32, n)
			for i := range src {
				src[i] = math.Float32frombits(r.Uint32())
			}
			got = catch(func() { save(addr, src) })
			want = catch(func() { perWordStore(wm, addr, src) })
		} else {
			gd, wd := make([]float32, n), make([]float32, n)
			for i := range gd {
				gd[i], wd[i] = -7, -7 // what a word not loaded keeps
			}
			got = catch(func() { load(addr, gd) })
			want = catch(func() { perWordLoad(wm, addr, wd) })
			sameWords(t, what, gd, wd)
		}
		if got != want {
			t.Fatalf("%s: span panics with %v, per-word path with %v", what, got, want)
		}
		if want != nil {
			panics++
		}
		sameSpace(t, what, span, word)
	}
	if panics < 60 {
		t.Fatalf("only %d of 600 spans panicked; the draw no longer reaches the checks", panics)
	}
}

// TestSpanPanicTexts pins the span moves to the per-word panic texts that
// TestScratchpadPaged pins, and the split at isa.SpadBase to the DRAM side.
func TestSpanPanicTexts(t *testing.T) {
	s := NewScratchpad(1024)
	a := AddressSpace{DRAM: NewPagedMem(), Spad: s}
	buf := make([]float32, 4)
	for _, tc := range []struct {
		name string
		f    func()
		want string
	}{
		{"unaligned load", func() { s.LoadSpan(isa.SpadBase+2, buf) }, fmt.Sprintf("npu: unaligned 32-bit access at %#x", isa.SpadBase+2)},
		{"unaligned store", func() { s.StoreSpan(isa.SpadBase+6, buf) }, fmt.Sprintf("npu: unaligned 32-bit access at %#x", isa.SpadBase+6)},
		{"load past end", func() { s.LoadSpan(isa.SpadBase+1020, buf) }, "npu: scratchpad access out of range: offset 0x400 of 0x400 bytes"},
		{"store past end", func() { s.StoreSpan(isa.SpadBase+4096, buf) }, "npu: scratchpad access out of range: offset 0x1000 of 0x400 bytes"},
		{"low address", func() { s.StoreSpan(64, buf) }, "npu: scratchpad access to non-scratchpad address 0x40"},
		{"unaligned DRAM", func() { a.LoadSpan(6, buf) }, "npu: unaligned 32-bit access at 0x6"},
		{"unaligned below SpadBase", func() { a.StoreSpan(isa.SpadBase-2, buf) }, fmt.Sprintf("npu: unaligned 32-bit access at %#x", isa.SpadBase-2)},
		{"across SpadBase past end", func() { a.LoadSpan(isa.SpadBase-8, make([]float32, 2+256+1)) }, "npu: scratchpad access out of range: offset 0x400 of 0x400 bytes"},
	} {
		if got := catch(tc.f); got != tc.want {
			t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
		}
	}
	// An empty span touches nothing, so it makes no check either.
	if got := catch(func() { s.LoadSpan(3, nil); a.StoreSpan(1, nil) }); got != nil {
		t.Errorf("empty span panicked: %v", got)
	}
}

// refRunIn and refRunOut are the per-word DMA loops RunIn and RunOut
// replaced for untransposed rows.
func refRunIn(d DMADesc, dram *PagedMem, spad *Scratchpad, dramAddr, spadAddr uint64) error {
	n := d.Normalize()
	if err := n.Validate(); err != nil {
		return err
	}
	for o := 0; o < n.Outer; o++ {
		dBase := dramAddr + uint64(o*n.OuterStride)
		sBase := spadAddr + uint64(o*n.spadOuterBytes())
		for r := 0; r < n.Rows; r++ {
			for c := 0; c < n.Cols; c++ {
				spad.StoreW(sBase+n.spadOffset(r, c), dram.LoadW(dBase+uint64(r*n.DRAMStride+c*n.ElemBytes)))
			}
		}
	}
	return nil
}

func refRunOut(d DMADesc, dram *PagedMem, spad *Scratchpad, dramAddr, spadAddr uint64) error {
	n := d.Normalize()
	if err := n.Validate(); err != nil {
		return err
	}
	for o := 0; o < n.Outer; o++ {
		dBase := dramAddr + uint64(o*n.OuterStride)
		sBase := spadAddr + uint64(o*n.spadOuterBytes())
		for r := 0; r < n.Rows; r++ {
			for c := 0; c < n.Cols; c++ {
				dram.StoreW(dBase+uint64(r*n.DRAMStride+c*n.ElemBytes), spad.LoadW(sBase+n.spadOffset(r, c)))
			}
		}
	}
	return nil
}

// TestDMAMatchesPerWord drives RunIn and RunOut against the per-word loops
// on random descriptors: rows wider than one span chunk, DRAM rows across a
// page boundary, scratchpad tiles off the end or below isa.SpadBase, and
// misaligned addresses on either side.
func TestDMAMatchesPerWord(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	panics := 0
	for iter := 0; iter < 400; iter++ {
		seed := r.Int63()
		d := DMADesc{Rows: 1 + r.Intn(4), Cols: 1 + r.Intn(8), Outer: 1 + r.Intn(2), Transpose: r.Intn(4) == 0}
		if r.Intn(3) == 0 {
			d.Cols = rowChunk - 8 + r.Intn(rowChunk)
		}
		if r.Intn(2) == 0 {
			d.DRAMStride = 4 * (d.Cols + r.Intn(16))
		}
		if r.Intn(2) == 0 && !d.Transpose {
			d.SpadStride = 4 * (d.Cols + r.Intn(16))
		}
		dramAddr := uint64(1+r.Intn(2))*pageBytes - 4*uint64(r.Intn(d.Cols+4))
		spadAddr := isa.SpadBase + 4*uint64(r.Intn(spanSpadBytes/4))
		switch r.Intn(8) {
		case 0:
			dramAddr += 2
		case 1:
			spadAddr += 2
		case 2:
			spadAddr = 4 * uint64(r.Intn(64))
		}
		out := r.Intn(2) == 0
		span, word := seededSpace(seed), seededSpace(seed)
		what := fmt.Sprintf("iter %d %+v dram %#x spad %#x out %v", iter, d, dramAddr, spadAddr, out)

		var gotErr, wantErr error
		var got, want any
		if out {
			got = catch(func() { gotErr = d.RunOut(span.DRAM, span.Spad, dramAddr, spadAddr) })
			want = catch(func() { wantErr = refRunOut(d, word.DRAM, word.Spad, dramAddr, spadAddr) })
		} else {
			got = catch(func() { gotErr = d.RunIn(span.DRAM, span.Spad, dramAddr, spadAddr) })
			want = catch(func() { wantErr = refRunIn(d, word.DRAM, word.Spad, dramAddr, spadAddr) })
		}
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: span path (%v, %v), per-word path (%v, %v)", what, got, gotErr, want, wantErr)
		}
		if want != nil {
			panics++
		}
		sameSpace(t, what, span, word)
	}
	if panics < 40 {
		t.Fatalf("only %d of 400 DMAs panicked; the draw no longer reaches the checks", panics)
	}
}
