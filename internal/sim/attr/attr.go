// Package attr attributes coherence misses to program objects: it
// inverts the address assignment of internal/layout — static globals
// by their bases and strides, heap allocations through the machine's
// allocation records, arenas by address arithmetic — and aggregates
// the simulator's miss-provenance events (cache.Attributor) into
// per-object, per-field and per-block-offset tallies with
// writer→victim edges.
//
// This is the evidence stream behind the paper's §4/§5 discussion:
// not just "how many false-sharing misses at block size B" but which
// object's which field suffered them and whose writes caused them,
// before and after a transformation.
package attr

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
	"falseshare/internal/vm"
)

// Object kinds (entry provenance).
const (
	KindGlobal = "global" // shared global from the layout
	KindHeap   = "heap"   // shared-heap allocation (alloc)
	KindArena  = "arena"  // per-process arena (allocpp)
	KindNone   = "unmapped"
)

// Field is one struct member's byte span within an element.
type Field struct {
	Name string `json:"name"`
	Off  int64  `json:"off"`
	Size int64  `json:"size"`
}

// entry is one mapped address range.
type entry struct {
	lo, hi     int64
	object     string
	kind       string
	dims       []int64 // extents, outermost first (empty: one element)
	strides    []int64 // byte strides matching dims
	elemSize   int64   // payload bytes of one element (0: opaque range)
	structName string  // element struct type ("" for scalars)
}

// Loc locates one address within the map.
type Loc struct {
	ID     int   // entry id, stable for the map's lifetime
	Elem   int64 // flattened element slot (padded space)
	Offset int64 // byte offset within the element (may land in padding)
}

// Map resolves addresses back to (object, element, offset). Static
// ranges come from a layout; heap spans are discovered lazily through
// the attached machine's allocation records, arena addresses by
// arithmetic. A Map is not safe for concurrent use — each simulator
// gets its own collector, and diagnostic runs are serial.
type Map struct {
	entries []entry
	order   []int // entry ids sorted by lo
	structs map[string][]Field
	// sizeStructs maps a struct's layout size to its name when that
	// size is unambiguous, typing anonymous heap spans by their
	// allocation stride ("" marks a size two structs share).
	sizeStructs map[int64]string

	mach *vm.Machine

	heapBase  int64
	arenaBase int64
	arenaSize int64
	end       int64
	nprocs    int64

	ptrGlobals []ptrGlobal
	unmapped   int // id of the catch-all entry
}

// ptrGlobal is a shared scalar pointer global: reading its value
// after a run names the heap span it points at.
type ptrGlobal struct {
	name       string
	base       int64
	structName string
	elemSize   int64
}

// NewMap builds the reverse map for one program configuration.
func NewMap(l *layout.Layout) *Map {
	m := &Map{
		structs:     map[string][]Field{},
		sizeStructs: map[int64]string{},
		heapBase:    l.HeapBase,
		arenaBase:   l.ArenaBase,
		arenaSize:   l.ArenaSize,
		end:         l.End,
		nprocs:      l.Nprocs,
	}
	m.unmapped = m.addEntry(entry{lo: -1, hi: -1, object: "(unmapped)", kind: KindNone})
	for _, name := range l.Order {
		vl := l.Vars[name]
		if vl == nil {
			continue
		}
		e := entry{
			lo:       vl.Base,
			hi:       vl.Base + vl.Total,
			object:   name,
			kind:     KindGlobal,
			dims:     vl.Dims,
			strides:  vl.Strides,
			elemSize: vl.ElemSize,
		}
		t := vl.Sym.Type
		for t != nil && t.Kind == types.Array {
			t = t.Elem
		}
		if t != nil && t.Kind == types.StructK {
			e.structName = t.Struct.Name
		}
		m.insert(e)
		if t != nil && t.Kind == types.Pointer && len(vl.Dims) == 0 {
			pg := ptrGlobal{name: name, base: vl.Base}
			if pe := t.Elem; pe != nil {
				if pe.Kind == types.StructK {
					pg.structName = pe.Struct.Name
					if sl := l.Structs[pe.Struct.Name]; sl != nil {
						pg.elemSize = sl.Size
					}
				} else if pe.IsScalar() {
					pg.elemSize = pe.MustScalarSize()
				}
			}
			m.ptrGlobals = append(m.ptrGlobals, pg)
		}
	}
	for name, sl := range l.Structs {
		var si *types.StructInfo
		if l.Info != nil {
			si = l.Info.Structs[name]
		}
		fields := make([]Field, 0, len(sl.Offsets))
		for i, off := range sl.Offsets {
			end := sl.Size
			if i+1 < len(sl.Offsets) {
				end = sl.Offsets[i+1]
			}
			fname := fmt.Sprintf("f%d", i)
			if si != nil && i < len(si.Fields) {
				fname = si.Fields[i].Name
			}
			fields = append(fields, Field{Name: fname, Off: off, Size: end - off})
		}
		m.structs[name] = fields
		if prev, ok := m.sizeStructs[sl.Size]; ok && prev != name {
			m.sizeStructs[sl.Size] = "" // size shared by two structs: ambiguous
		} else {
			m.sizeStructs[sl.Size] = name
		}
	}
	return m
}

// AttachMachine connects the live machine whose allocation records
// and memory name the dynamic ranges. Attach before simulating so
// heap misses resolve to their allocation spans.
func (m *Map) AttachMachine(mach *vm.Machine) { m.mach = mach }

func (m *Map) addEntry(e entry) int {
	m.entries = append(m.entries, e)
	return len(m.entries) - 1
}

// insert registers a range and keeps the order index sorted.
func (m *Map) insert(e entry) int {
	id := m.addEntry(e)
	i := sort.Search(len(m.order), func(i int) bool {
		return m.entries[m.order[i]].lo > e.lo
	})
	m.order = append(m.order, 0)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = id
	return id
}

// find returns the id of the range containing addr, or -1.
func (m *Map) find(addr int64) int {
	lo, hi := 0, len(m.order)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.entries[m.order[mid]].lo <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1
	}
	id := m.order[lo-1]
	if addr < m.entries[id].hi {
		return id
	}
	return -1
}

// Resolve maps an address to its location. Unknown heap and arena
// addresses register their range on first touch; anything outside
// the program's address space lands in the catch-all "(unmapped)"
// entry.
func (m *Map) Resolve(addr int64) Loc {
	id := m.find(addr)
	if id < 0 {
		id = m.discover(addr)
	}
	e := &m.entries[id]
	if e.lo < 0 {
		return Loc{ID: id}
	}
	off := addr - e.lo
	elem := int64(0)
	rem := off
	for k, s := range e.strides {
		if s <= 0 {
			break
		}
		i := rem / s
		rem -= i * s
		if k < len(e.dims) {
			elem = elem*e.dims[k] + i
		} else {
			elem = i
		}
	}
	return Loc{ID: id, Elem: elem, Offset: rem}
}

func (m *Map) discover(addr int64) int {
	switch {
	case addr >= m.heapBase && addr < m.arenaBase:
		if m.mach != nil {
			if start, end, stride, ok := m.mach.AllocSpan(addr); ok {
				return m.insert(m.heapEntry(vm.Span{Start: start, End: end, Stride: stride}))
			}
		}
		if m.mach == nil {
			// Replay without a machine or sidecar: the whole heap is
			// one opaque object rather than silently unmapped.
			return m.insert(entry{lo: m.heapBase, hi: m.arenaBase, object: "heap", kind: KindHeap})
		}
	case addr >= m.arenaBase && addr < m.end && m.arenaSize > 0:
		p := (addr - m.arenaBase) / m.arenaSize
		lo := m.arenaBase + p*m.arenaSize
		return m.insert(entry{
			lo: lo, hi: lo + m.arenaSize,
			object: fmt.Sprintf("arena:p%d", p),
			kind:   KindArena,
		})
	}
	return m.unmapped
}

// heapEntry maps one recorded allocation. A span whose stride is the
// layout size of exactly one struct takes that struct's identity: the
// interleaved per-gate allocations of a pverify-style build phase then
// collapse into one logical "heap:Gate" object instead of hundreds of
// anonymous spans (the collector merges same-named entries).
func (m *Map) heapEntry(sp vm.Span) entry {
	e := entry{
		lo:     sp.Start,
		hi:     sp.End,
		object: fmt.Sprintf("heap@0x%x", sp.Start),
		kind:   KindHeap,
	}
	if sp.Stride > 0 {
		e.dims = []int64{(sp.End - sp.Start + sp.Stride - 1) / sp.Stride}
		e.strides = []int64{sp.Stride}
		e.elemSize = sp.Stride
		if sn := m.sizeStructs[sp.Stride]; sn != "" {
			e.object = "heap:" + sn
			e.structName = sn
		}
	}
	return e
}

// ResolveOwners names the dynamic heap spans after a run: every
// recorded allocation is registered (misses may not have touched them
// all), then each shared pointer global is read from machine memory
// and the span holding its value takes the global's name and element
// type — the same resolution the translation validator uses to walk
// heap structures. Spans no global reaches keep their "heap@0x…"
// names. Calling it again changes nothing, so a caller may resolve
// before writing the map out (WriteFile resolves too). Safe to call
// with no machine attached (no-op).
func (m *Map) ResolveOwners() {
	if m.mach == nil {
		return
	}
	for _, sp := range m.mach.AllocSpans() {
		if m.find(sp.Start) < 0 {
			m.insert(m.heapEntry(sp))
		}
	}
	for _, pg := range m.ptrGlobals {
		ptr := m.mach.ReadPtr(pg.base)
		if ptr == 0 {
			continue
		}
		id := m.find(ptr)
		if id < 0 {
			continue
		}
		e := &m.entries[id]
		if e.kind != KindHeap {
			continue
		}
		if strings.HasPrefix(e.object, "heap@") || strings.HasPrefix(e.object, "heap:") {
			e.object = pg.name
		} else if !slices.Contains(strings.Split(e.object, ","), pg.name) {
			e.object += "," + pg.name
		}
		if e.structName == "" {
			e.structName = pg.structName
		}
		if pg.elemSize > 0 && (e.elemSize == 0 || pg.elemSize < e.elemSize) {
			e.elemSize = pg.elemSize
		}
	}
}

// Object returns the name of an entry.
func (m *Map) Object(id int) string {
	if id < 0 || id >= len(m.entries) {
		return "(unmapped)"
	}
	return m.entries[id].object
}

// StructOf returns the element struct type of an entry ("" for
// scalars and opaque ranges).
func (m *Map) StructOf(id int) string {
	if id < 0 || id >= len(m.entries) {
		return ""
	}
	return m.entries[id].structName
}

// ObjectKind returns the provenance kind of an entry.
func (m *Map) ObjectKind(id int) string {
	if id < 0 || id >= len(m.entries) {
		return KindNone
	}
	return m.entries[id].kind
}

// FieldName labels the byte offset off within an element of entry id:
// the struct field containing it, "(pad)" for bytes past the element
// payload, or an offset label for large non-struct elements. Scalar
// elements and opaque ranges (arenas) return "".
func (m *Map) FieldName(id int, off int64) string {
	if id < 0 || id >= len(m.entries) {
		return ""
	}
	e := &m.entries[id]
	if e.elemSize > 0 && off >= e.elemSize {
		return "(pad)"
	}
	if e.structName != "" {
		fields := m.structs[e.structName]
		for i := len(fields) - 1; i >= 0; i-- {
			if off >= fields[i].Off {
				return fields[i].Name
			}
		}
	}
	if e.elemSize > 16 || (e.elemSize == 0 && e.kind != KindArena) {
		return fmt.Sprintf("+0x%x", off)
	}
	return ""
}
