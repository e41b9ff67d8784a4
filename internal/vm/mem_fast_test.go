package vm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"multiflip/internal/ir"
)

// fastStore is the emitted store fast path for one width.
func fastStore(s *mem, size int, off, v uint64) bool {
	switch size {
	case 8:
		return s.st64(off, v)
	case 4:
		return s.st32(off, v)
	case 2:
		return s.st16(off, v)
	}
	return s.st8(off, v)
}

// TestGlobalFastPath checks the inlined global-segment accessors against
// machine.load/store over width × alignment × position × page tracking
// state × alignment-trap option. A load must either decline or return
// what machine.load returns; a store followed by the compiled kernels'
// fallback (machine.store when the fast path declines) must leave the
// segment — bytes, dirty bits and convergence page hashes — exactly as
// machine.store alone does. Aligned in-bounds accesses must take the fast
// path except for a tracked clean page's first store, which must decline
// so the store reaches firstTouch.
func TestGlobalFastPath(t *testing.T) {
	const n = 1004 // not a multiple of 8: the last 8-byte word ends short of n
	img := make([]byte, n)
	for i := range img {
		img[i] = byte(i*131 + 7)
	}
	const (
		untracked = iota
		trackedClean
		trackedDirty
	)
	newMachine := func(tracking int, noAlign bool, off uint64) *machine {
		m := &machine{noAlign: noAlign}
		m.globals = flatMem(n, slices.Clone(img))
		if tracking != untracked {
			m.globals.track()
			m.globals.trackConv(saltGlobals)
		}
		if p := int(off >> pageShift); tracking == trackedDirty && off < n {
			m.globals.firstTouch(p)
			m.globals.dirty.set(p)
		}
		return m
	}
	for _, size := range []int{1, 2, 4, 8} {
		last := uint64(n-size) &^ uint64(size-1)
		positions := []struct {
			name     string
			addr     uint64
			inBounds bool
		}{
			{"first", ir.GlobalBase, true},
			{"last", ir.GlobalBase + last, true},
			{"one past the end", ir.GlobalBase + last + uint64(size), false},
			{"below base", ir.GlobalBase - uint64(size), false},
			{"wrapped", -uint64(size), false},
		}
		for _, pos := range positions {
			for _, misalign := range []uint64{0, 1} {
				if misalign == 1 && size == 1 {
					continue
				}
				addr := pos.addr + misalign
				off := addr - ir.GlobalBase
				for _, tracking := range []int{untracked, trackedClean, trackedDirty} {
					for _, noAlign := range []bool{false, true} {
						label := fmt.Sprintf("size=%d %s misalign=%d tracking=%d noAlign=%v", size, pos.name, misalign, tracking, noAlign)
						fast := pos.inBounds && misalign == 0

						m, ref := newMachine(tracking, noAlign, off), newMachine(tracking, noAlign, off)
						v, ok := m.globals.ld(off, size)
						want, trap := ref.load(addr, size)
						if ok != fast {
							t.Errorf("%s: load fast path ok=%v, want %v", label, ok, fast)
						}
						if ok && (trap != TrapNone || v != want) {
							t.Errorf("%s: fast load = %#x, machine.load = %#x trap %v", label, v, want, trap)
						}

						const val = 0xa1b2c3d4e5f60718
						ok = fastStore(&m.globals, size, off, val)
						if want := fast && tracking != trackedClean; ok != want {
							t.Errorf("%s: store fast path ok=%v, want %v", label, ok, want)
						}
						gotTrap := TrapNone
						if !ok {
							gotTrap = m.store(addr, size, val)
						}
						if wantTrap := ref.store(addr, size, val); gotTrap != wantTrap {
							t.Errorf("%s: store trap %v, machine.store trap %v", label, gotTrap, wantTrap)
						}
						g, r := &m.globals, &ref.globals
						if !bytes.Equal(g.flat, r.flat) || !slices.Equal(g.dirty, r.dirty) || !slices.Equal(g.convKnown, r.convKnown) {
							t.Errorf("%s: segment state differs from machine.store's", label)
						}
						for p := range g.convH {
							if g.convKnown.get(p) && g.convH[p] != r.convH[p] {
								t.Errorf("%s: page %d hash differs from machine.store's", label, p)
							}
						}
						if tracking == trackedClean && gotTrap == TrapNone {
							p := int(off >> pageShift)
							if !g.convKnown.get(p) || g.convH[p] != hashPage(g.pageSeed(p), pageTable(img)[p]) {
								t.Errorf("%s: first store to a clean page did not hash its baseline", label)
							}
						}
					}
				}
			}
		}
	}
}
