package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// refMachine is the machine as it was before the hot-loop rewrite,
// kept as the correctness oracle for it (the arena allocator's
// negative-count and overflow checks included): a per-instruction
// exec returning three values, an append-grown operand stack, a
// frame recomputed every instruction, and fully allocated shared and
// private memory. For any program both machines must produce the
// same reference stream, per-process counters, barrier count,
// allocation spans, final memory and error text; the differential
// tests in oracle_diff_test.go check that. Only the mechanics differ.
// Spans, fault injection and cancellation are left out: they are not
// part of what the machines compute.
type refMachine struct {
	prog   *Program
	nprocs int
	mem    []byte
	procs  []*refProc

	heapPtr     int64
	arenaPtr    []int64
	heapAllocs  []refAllocEntry
	arenaAllocs [][]refAllocEntry

	MaxInstrs int64
	OnBarrier func()

	barrierCount int64
}

type refFrame struct {
	fn       *Func
	pc       int
	locals   []int64
	privMark int64
}

type refProc struct {
	ID     int
	frames []refFrame
	stack  []int64
	priv   []byte
	bump   int64
	status Status

	Instrs int64
	Spins  int64
	Refs   int64
}

type refAllocEntry struct {
	start, end, stride int64
}

const refNullPage = 0x1000

// NewRefMachine builds the oracle machine for prog.
func NewRefMachine(prog *Program) *refMachine {
	n := prog.Nprocs
	m := &refMachine{
		prog:        prog,
		nprocs:      n,
		mem:         make([]byte, prog.SharedEnd),
		heapPtr:     prog.HeapBase,
		arenaPtr:    make([]int64, n),
		arenaAllocs: make([][]refAllocEntry, n),
		MaxInstrs:   1e9,
	}
	for p := 0; p < n; p++ {
		m.arenaPtr[p] = prog.ArenaBase + int64(p)*prog.ArenaSize
	}
	for p := 0; p < n; p++ {
		main := prog.Funcs[prog.Main]
		proc := &refProc{
			ID:   p,
			priv: make([]byte, prog.PrivSize),
			bump: prog.PrivSize / 2,
		}
		proc.frames = []refFrame{{fn: main, locals: make([]int64, main.NLocals)}}
		m.procs = append(m.procs, proc)
	}
	return m
}

func (m *refMachine) Procs() []*refProc { return m.procs }
func (m *refMachine) Mem() []byte       { return m.mem }
func (m *refMachine) Barriers() int64   { return m.barrierCount }

func (m *refMachine) AllocSpans() []Span {
	out := make([]Span, len(m.heapAllocs))
	for i, e := range m.heapAllocs {
		out[i] = Span{Start: e.start, End: e.end, Stride: e.stride}
	}
	return out
}

func (m *refMachine) Run(sink func(Ref)) error {
	const slice = 20000
	for {
		anyRunning := false
		atBarrier := 0
		done := 0
		for _, p := range m.procs {
			switch p.status {
			case Done:
				done++
				continue
			case AtBarrier:
				atBarrier++
				continue
			}
			anyRunning = true
			if err := m.step(p, slice, sink); err != nil {
				return err
			}
		}
		if done == m.nprocs {
			return nil
		}
		if !anyRunning {
			if atBarrier > 0 && atBarrier+done == m.nprocs {
				for _, p := range m.procs {
					if p.status == AtBarrier {
						p.status = Running
					}
				}
				m.barrierCount++
				if m.OnBarrier != nil {
					m.OnBarrier()
				}
				continue
			}
			return &RunError{Msg: "deadlock: no runnable process"}
		}
	}
}

func (m *refMachine) step(p *refProc, slice int, sink func(Ref)) error {
	for i := 0; i < slice; i++ {
		f := &p.frames[len(p.frames)-1]
		if f.pc >= len(f.Code()) {
			return m.fail(p, f, "fell off end of code")
		}
		in := f.Code()[f.pc]
		p.Instrs++
		if p.Instrs > m.max() {
			return m.fail(p, f, "step budget exceeded (%d instrs) at pc=%d (runaway program?)", p.Instrs-1, f.pc)
		}

		emitted, blocked, err := m.exec(p, f, in, sink)
		if err != nil {
			return err
		}
		if p.status == Done || p.status == AtBarrier {
			return nil
		}
		if blocked {
			return nil
		}
		if emitted {
			return nil
		}
	}
	return nil
}

func (m *refMachine) max() int64 {
	if m.MaxInstrs > 0 {
		return m.MaxInstrs
	}
	return 1e9
}

func (f *refFrame) Code() []Instr { return f.fn.Code }

func (m *refMachine) fail(p *refProc, f *refFrame, format string, args ...any) error {
	line := 0
	if f.pc < len(f.fn.Code) {
		line = f.fn.Code[f.pc].Line
	}
	return &RunError{Proc: p.ID, Fn: f.fn.Name, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *refProc) push(v int64) { p.stack = append(p.stack, v) }
func (p *refProc) pop() int64 {
	v := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	return v
}
func (p *refProc) top() int64 { return p.stack[len(p.stack)-1] }

func (m *refMachine) exec(p *refProc, f *refFrame, in Instr, sink func(Ref)) (emitted, blocked bool, err error) {
	switch in.Op {
	case OpNop:
	case OpPush:
		p.push(in.A)
	case OpPushPid:
		p.push(int64(p.ID))
	case OpPushNP:
		p.push(int64(m.nprocs))
	case OpLoadLocal:
		p.push(f.locals[in.A])
	case OpStoreLocal:
		f.locals[in.A] = p.pop()
	case OpPop:
		p.pop()

	case OpLoad4:
		addr := p.pop()
		v, e := m.load(p, f, addr, 4, sink, &emitted)
		if e != nil {
			return false, false, e
		}
		p.push(v)
	case OpLoad8:
		addr := p.pop()
		v, e := m.load(p, f, addr, 8, sink, &emitted)
		if e != nil {
			return false, false, e
		}
		p.push(v)
	case OpStore4:
		addr := p.pop()
		v := p.pop()
		if e := m.store(p, f, addr, v, 4, sink, &emitted); e != nil {
			return false, false, e
		}
	case OpStore8:
		addr := p.pop()
		v := p.pop()
		if e := m.store(p, f, addr, v, 8, sink, &emitted); e != nil {
			return false, false, e
		}

	case OpIndexPtr:
		idx := p.pop()
		ptr := p.pop()
		if ptr == 0 {
			return false, false, m.fail(p, f, "null pointer dereference")
		}
		stride := m.strideOf(ptr, in.A)
		p.push(ptr + idx*stride)

	case OpCheck:
		idx := p.top()
		if idx < 0 || idx >= in.A {
			return false, false, m.fail(p, f, "index %d out of range [0,%d)", idx, in.A)
		}

	case OpAddI:
		b := p.pop()
		p.push(p.pop() + b)
	case OpSubI:
		b := p.pop()
		p.push(p.pop() - b)
	case OpMulI:
		b := p.pop()
		p.push(p.pop() * b)
	case OpDivI:
		b := p.pop()
		if b == 0 {
			return false, false, m.fail(p, f, "integer division by zero")
		}
		p.push(p.pop() / b)
	case OpModI:
		b := p.pop()
		if b == 0 {
			return false, false, m.fail(p, f, "integer modulo by zero")
		}
		p.push(p.pop() % b)
	case OpNegI:
		p.push(-p.pop())

	case OpAddF:
		b := refPF(p.pop())
		p.push(refFP(refPF(p.pop()) + b))
	case OpSubF:
		b := refPF(p.pop())
		p.push(refFP(refPF(p.pop()) - b))
	case OpMulF:
		b := refPF(p.pop())
		p.push(refFP(refPF(p.pop()) * b))
	case OpDivF:
		b := refPF(p.pop())
		p.push(refFP(refPF(p.pop()) / b))
	case OpNegF:
		p.push(refFP(-refPF(p.pop())))
	case OpI2F:
		p.push(refFP(float64(p.pop())))

	case OpEqI:
		b := p.pop()
		p.push(refB2I(p.pop() == b))
	case OpNeI:
		b := p.pop()
		p.push(refB2I(p.pop() != b))
	case OpLtI:
		b := p.pop()
		p.push(refB2I(p.pop() < b))
	case OpLeI:
		b := p.pop()
		p.push(refB2I(p.pop() <= b))
	case OpGtI:
		b := p.pop()
		p.push(refB2I(p.pop() > b))
	case OpGeI:
		b := p.pop()
		p.push(refB2I(p.pop() >= b))
	case OpEqF:
		b := refPF(p.pop())
		p.push(refB2I(refPF(p.pop()) == b))
	case OpNeF:
		b := refPF(p.pop())
		p.push(refB2I(refPF(p.pop()) != b))
	case OpLtF:
		b := refPF(p.pop())
		p.push(refB2I(refPF(p.pop()) < b))
	case OpLeF:
		b := refPF(p.pop())
		p.push(refB2I(refPF(p.pop()) <= b))
	case OpGtF:
		b := refPF(p.pop())
		p.push(refB2I(refPF(p.pop()) > b))
	case OpGeF:
		b := refPF(p.pop())
		p.push(refB2I(refPF(p.pop()) >= b))
	case OpNot:
		p.push(refB2I(p.pop() == 0))

	case OpJmp:
		f.pc = int(in.A)
		return false, false, nil
	case OpJz:
		if p.pop() == 0 {
			f.pc = int(in.A)
			return false, false, nil
		}

	case OpCall:
		callee := m.prog.Funcs[in.A]
		nf := refFrame{fn: callee, locals: make([]int64, callee.NLocals), privMark: p.bump}
		for i := callee.NParams - 1; i >= 0; i-- {
			nf.locals[i] = p.pop()
		}
		f.pc++
		p.frames = append(p.frames, nf)
		return false, false, nil
	case OpRet, OpRetV:
		var v int64
		if in.Op == OpRetV {
			v = p.pop()
		}
		p.bump = f.privMark
		p.frames = p.frames[:len(p.frames)-1]
		if len(p.frames) == 0 {
			p.status = Done
			return false, false, nil
		}
		if in.Op == OpRetV {
			p.push(v)
		}
		return false, false, nil
	case OpHalt:
		p.status = Done
		return false, false, nil

	case OpAllocHeap:
		stride := in.A
		count := int64(1)
		align := int64(8)
		if in.B&1 != 0 {
			count = p.pop()
		}
		if a := in.B >> 1; a > align {
			align = a
		}
		if count < 0 {
			return false, false, m.fail(p, f, "negative allocation count %d", count)
		}
		m.heapPtr = refAlign64(m.heapPtr, align)
		addr := m.heapPtr
		if !refAllocFits(addr, stride, count, m.prog.ArenaBase) {
			return false, false, m.fail(p, f, "shared heap exhausted")
		}
		total := stride * count
		m.heapPtr += total
		m.heapAllocs = append(m.heapAllocs, refAllocEntry{addr, addr + total, stride})
		p.push(addr)

	case OpAllocArena:
		stride := in.A
		count := int64(1)
		if in.B&1 != 0 {
			count = p.pop()
		}
		if count < 0 {
			return false, false, m.fail(p, f, "negative allocation count %d", count)
		}
		base := m.arenaPtr[p.ID]
		base = refAlign64(base, 8)
		limit := m.prog.ArenaBase + int64(p.ID+1)*m.prog.ArenaSize
		if !refAllocFits(base, stride, count, limit) {
			return false, false, m.fail(p, f, "process arena exhausted")
		}
		total := stride * count
		m.arenaPtr[p.ID] = base + total
		m.arenaAllocs[p.ID] = append(m.arenaAllocs[p.ID], refAllocEntry{base, base + total, stride})
		p.push(base)

	case OpBarrier:
		p.status = AtBarrier
		f.pc++
		return false, false, nil

	case OpLockAcq:
		addr := p.top()
		if addr&PrivTag != 0 || addr <= 0 || addr+4 > int64(len(m.mem)) {
			return false, false, m.fail(p, f, "invalid lock address %#x", addr)
		}
		v := int64(int32(binary.LittleEndian.Uint32(m.mem[addr:])))
		m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: false})
		if v != 0 {
			p.Spins++
			return true, true, nil
		}
		p.pop()
		binary.LittleEndian.PutUint32(m.mem[addr:], 1)
		m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true})
		emitted = true

	case OpLockRel:
		addr := p.pop()
		if addr&PrivTag != 0 || addr <= 0 || addr+4 > int64(len(m.mem)) {
			return false, false, m.fail(p, f, "invalid lock address %#x", addr)
		}
		binary.LittleEndian.PutUint32(m.mem[addr:], 0)
		m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true})
		emitted = true

	case OpLocalArr:
		size := refAlign64(in.A, 8)
		base := p.bump
		if base+size > int64(len(p.priv)) {
			return false, false, m.fail(p, f, "private space exhausted")
		}
		p.bump += size
		for i := base; i < base+size; i++ {
			p.priv[i] = 0
		}
		f.locals[in.B] = base | PrivTag

	default:
		return false, false, m.fail(p, f, "bad opcode %s", in.Op)
	}
	f.pc++
	return emitted, false, nil
}

func (m *refMachine) emit(p *refProc, sink func(Ref), r Ref) {
	p.Refs++
	if sink != nil {
		sink(r)
	}
}

func (m *refMachine) load(p *refProc, f *refFrame, addr int64, size int, sink func(Ref), emitted *bool) (int64, error) {
	if addr&PrivTag != 0 {
		off := addr &^ PrivTag
		if off < 0 || off+int64(size) > int64(len(p.priv)) {
			return 0, m.fail(p, f, "private access out of range %#x", off)
		}
		return refRd(p.priv[off:], size), nil
	}
	if addr >= 0 && addr < refNullPage {
		return 0, m.fail(p, f, "null pointer dereference (address %#x)", addr)
	}
	if addr <= 0 || addr+int64(size) > int64(len(m.mem)) {
		return 0, m.fail(p, f, "shared load out of range %#x", addr)
	}
	m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: int8(size), Write: false})
	*emitted = true
	return refRd(m.mem[addr:], size), nil
}

func (m *refMachine) store(p *refProc, f *refFrame, addr, v int64, size int, sink func(Ref), emitted *bool) error {
	if addr&PrivTag != 0 {
		off := addr &^ PrivTag
		if off < 0 || off+int64(size) > int64(len(p.priv)) {
			return m.fail(p, f, "private access out of range %#x", off)
		}
		refWr(p.priv[off:], v, size)
		return nil
	}
	if addr >= 0 && addr < refNullPage {
		return m.fail(p, f, "null pointer dereference (address %#x)", addr)
	}
	if addr <= 0 || addr+int64(size) > int64(len(m.mem)) {
		return m.fail(p, f, "shared store out of range %#x", addr)
	}
	refWr(m.mem[addr:], v, size)
	m.emit(p, sink, Ref{Proc: p.ID, Addr: addr, Size: int8(size), Write: true})
	*emitted = true
	return nil
}

func refRd(b []byte, size int) int64 {
	if size == 4 {
		return int64(int32(binary.LittleEndian.Uint32(b)))
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func refWr(b []byte, v int64, size int) {
	if size == 4 {
		binary.LittleEndian.PutUint32(b, uint32(v))
	} else {
		binary.LittleEndian.PutUint64(b, uint64(v))
	}
}

func (m *refMachine) strideOf(addr, fallback int64) int64 {
	var table []refAllocEntry
	if addr >= m.prog.ArenaBase {
		pid := (addr - m.prog.ArenaBase) / m.prog.ArenaSize
		if pid >= 0 && int(pid) < m.nprocs {
			table = m.arenaAllocs[pid]
		}
	} else if addr >= m.prog.HeapBase {
		table = m.heapAllocs
	} else {
		return fallback
	}
	i := sort.Search(len(table), func(i int) bool { return table[i].start > addr })
	if i > 0 && addr < table[i-1].end {
		return table[i-1].stride
	}
	return fallback
}

func refB2I(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func refPF(v int64) float64 { return math.Float64frombits(uint64(v)) }
func refFP(f float64) int64 { return int64(math.Float64bits(f)) }

func refAllocFits(base, stride, count, limit int64) bool {
	if stride > 0 && count > math.MaxInt64/stride {
		return false
	}
	return stride*count <= limit-base
}

func refAlign64(v, a int64) int64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}
