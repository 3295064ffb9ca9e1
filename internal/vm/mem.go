package vm

import "encoding/binary"

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// lazyMem is a byte-addressed space of fixed size whose 4 KiB pages
// are allocated on first write; a read of an untouched page returns
// zero. A program touches a few KiB of its address space (the shared
// heap alone reserves 16 MiB), so a machine pays only for the pages it
// writes. Callers check bounds against size.
type lazyMem struct {
	pages []*page
	size  int64
}

func newLazyMem(size int64) lazyMem {
	return lazyMem{pages: make([]*page, (size+pageMask)>>pageShift), size: size}
}

// load4, load8, store4 and store8 are the call-free fast paths: they
// report false, doing nothing, for an access that straddles a page
// boundary or (for stores) lands on an untouched page.
func (l *lazyMem) load4(addr int64) (int64, bool) {
	off := addr & pageMask
	if off > pageSize-4 {
		return 0, false
	}
	if pg := l.pages[addr>>pageShift]; pg != nil {
		return int64(int32(binary.LittleEndian.Uint32(pg[off:]))), true
	}
	return 0, true
}

func (l *lazyMem) load8(addr int64) (int64, bool) {
	off := addr & pageMask
	if off > pageSize-8 {
		return 0, false
	}
	if pg := l.pages[addr>>pageShift]; pg != nil {
		return int64(binary.LittleEndian.Uint64(pg[off:])), true
	}
	return 0, true
}

func (l *lazyMem) store4(addr, v int64) bool {
	off := addr & pageMask
	pg := l.pages[addr>>pageShift]
	if off > pageSize-4 || pg == nil {
		return false
	}
	binary.LittleEndian.PutUint32(pg[off:], uint32(v))
	return true
}

func (l *lazyMem) store8(addr, v int64) bool {
	off := addr & pageMask
	pg := l.pages[addr>>pageShift]
	if off > pageSize-8 || pg == nil {
		return false
	}
	binary.LittleEndian.PutUint64(pg[off:], uint64(v))
	return true
}

func (l *lazyMem) read4(addr int64) int64 {
	if v, ok := l.load4(addr); ok {
		return v
	}
	return int64(int32(l.readSlow(addr, 4)))
}

func (l *lazyMem) read8(addr int64) int64 {
	if v, ok := l.load8(addr); ok {
		return v
	}
	return int64(l.readSlow(addr, 8))
}

func (l *lazyMem) write4(addr, v int64) {
	if !l.store4(addr, v) {
		l.writeSlow(addr, uint64(v), 4)
	}
}

func (l *lazyMem) write8(addr, v int64) {
	if !l.store8(addr, v) {
		l.writeSlow(addr, uint64(v), 8)
	}
}

// readSlow and writeSlow handle what the fast paths refuse, a byte at
// a time, little-endian; writeSlow allocates the pages it touches.
func (l *lazyMem) readSlow(addr int64, n int) uint64 {
	var v uint64
	for i := n - 1; i >= 0; i-- {
		a := addr + int64(i)
		var b byte
		if pg := l.pages[a>>pageShift]; pg != nil {
			b = pg[a&pageMask]
		}
		v = v<<8 | uint64(b)
	}
	return v
}

func (l *lazyMem) writeSlow(addr int64, v uint64, n int) {
	for i := 0; i < n; i++ {
		a := addr + int64(i)
		pg := l.pages[a>>pageShift]
		if pg == nil {
			pg = new(page)
			l.pages[a>>pageShift] = pg
		}
		pg[a&pageMask] = byte(v >> (8 * i))
	}
}

// zero clears [from, to); untouched pages are already zero.
func (l *lazyMem) zero(from, to int64) {
	for from < to {
		i := from >> pageShift
		end := min((i+1)<<pageShift, to)
		if pg := l.pages[i]; pg != nil {
			clear(pg[from&pageMask : end-i<<pageShift])
		}
		from = end
	}
}
