package vm

import (
	"context"
	"fmt"
	"math"
	"slices"

	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
)

// Ref is one shared-memory reference in the trace.
type Ref struct {
	Proc  int
	Addr  int64
	Size  int8
	Write bool
}

// nullPage is the unmapped low address range; dereferences into it are
// reported as null-pointer errors.
const nullPage = 0x1000

// Status is a process's scheduling state.
type Status int

const (
	Running Status = iota
	AtBarrier
	Done
)

// frame is one activation record. code is the function's code with
// its hot sequences fused (see fuse); pc indexes it and fn.Code alike.
// The top frame's pc lives in Proc.pc while it runs; a caller's holds
// its return address.
type frame struct {
	fn       *Func
	code     []Instr
	pc       int
	lbase    int   // first slot of the frame's locals in Proc.slots
	privMark int64 // private bump pointer to restore on return
}

// Proc is one SPMD process.
type Proc struct {
	ID     int
	frames []frame
	// code, pc and locals are the top frame's, kept here so that a
	// turn starts without rederiving them; call and return switch
	// them.
	code   []Instr
	pc     int
	locals []int64
	// stack is the operand stack, live below sp. A push that finds it
	// full leaves the fast loop; the general path grows it.
	stack  []int64
	sp     int
	slots  []int64 // every frame's local slots, frame after frame
	priv   lazyMem
	bump   int64 // private-space bump pointer (local arrays)
	status Status

	// Instrs counts executed instructions (the KSR model's CPU work).
	Instrs int64
	// Spins counts failed lock acquisition attempts.
	Spins int64
	// Refs counts emitted shared references.
	Refs int64
}

type allocEntry struct {
	start, end, stride int64
}

// Machine executes a compiled program with nprocs processes.
type Machine struct {
	prog   *Program
	nprocs int
	mem    lazyMem
	code   [][]Instr // per function, Code with fused hot sequences
	procs  []*Proc

	heapPtr  int64
	arenaPtr []int64
	// heapAllocs and arenaAllocs record element strides for pointer
	// indexing (padded heap blocks keep their stride here).
	heapAllocs  []allocEntry
	arenaAllocs [][]allocEntry

	// MaxInstrs is the step budget: it bounds per-process execution so
	// a non-terminating program (a restructurer bug, an adversarial
	// input) fails with "step budget exceeded" instead of hanging the
	// whole sweep. Zero means the default of 1e9.
	MaxInstrs int64

	// OnBarrier, when set, is invoked at every barrier release — the
	// execution-time model uses it to account work phase by phase.
	OnBarrier func()

	// ctx, when set, cancels the run cooperatively: the scheduler
	// checks it periodically and Run returns its error.
	ctx context.Context

	barrierCount int64
}

// RunError is a runtime error with source location.
type RunError struct {
	Proc int
	Fn   string
	Line int
	Msg  string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("vm: proc %d: %s:%d: %s", e.Proc, e.Fn, e.Line, e.Msg)
}

// New creates a machine for the program's configured process count.
func New(prog *Program) *Machine {
	n := prog.Nprocs
	m := &Machine{
		prog:        prog,
		nprocs:      n,
		mem:         newLazyMem(prog.SharedEnd),
		code:        make([][]Instr, len(prog.Funcs)),
		heapPtr:     prog.HeapBase,
		arenaPtr:    make([]int64, n),
		arenaAllocs: make([][]allocEntry, n),
		MaxInstrs:   1e9,
	}
	for i, fn := range prog.Funcs {
		m.code[i] = fuse(fn.Code)
	}
	for p := 0; p < n; p++ {
		m.arenaPtr[p] = prog.ArenaBase + int64(p)*prog.ArenaSize
	}
	for p := 0; p < n; p++ {
		proc := &Proc{ID: p, stack: make([]int64, 32), priv: newLazyMem(prog.PrivSize)}
		proc.enter(prog.Funcs[prog.Main], m.code[prog.Main])
		proc.bump = prog.PrivSize / 2 // local arrays grow above private globals
		m.procs = append(m.procs, proc)
	}
	return m
}

// SetContext makes the run cancellable: the scheduler polls ctx
// between rounds and Run returns ctx.Err() once it is cancelled. The
// experiment pool routes per-job deadlines and Ctrl-C through here.
func (m *Machine) SetContext(ctx context.Context) { m.ctx = ctx }

// Procs exposes the per-process counters after a run.
func (m *Machine) Procs() []*Proc { return m.procs }

// Size returns the size of the shared address space, the program's
// SharedEnd: valid shared addresses lie in (0, Size()).
func (m *Machine) Size() int64 { return m.mem.size }

// TotalInstrs sums executed instructions across processes.
func (m *Machine) TotalInstrs() int64 {
	var n int64
	for _, p := range m.procs {
		n += p.Instrs
	}
	return n
}

// TotalRefs sums emitted shared references across processes.
func (m *Machine) TotalRefs() int64 {
	var n int64
	for _, p := range m.procs {
		n += p.Refs
	}
	return n
}

// TotalSpins sums failed lock acquisitions across processes.
func (m *Machine) TotalSpins() int64 {
	var n int64
	for _, p := range m.procs {
		n += p.Spins
	}
	return n
}

// ReadInt reads a 4-byte integer from shared memory (for tests).
func (m *Machine) ReadInt(addr int64) int64 { return m.mem.read4(addr) }

// ReadDouble reads an 8-byte double from shared memory (for tests).
func (m *Machine) ReadDouble(addr int64) float64 { return pf(m.mem.read8(addr)) }

// ReadPtr reads an 8-byte pointer word from shared memory.
func (m *Machine) ReadPtr(addr int64) int64 { return m.mem.read8(addr) }

// AllocSpan returns the shared-heap allocation containing addr —
// its start, end and element stride — or ok=false when addr lies in
// no recorded allocation. The translation validator uses it to
// enumerate the heap elements behind a shared pointer global.
func (m *Machine) AllocSpan(addr int64) (start, end, stride int64, ok bool) {
	for _, e := range m.heapAllocs {
		if addr >= e.start && addr < e.end {
			return e.start, e.end, e.stride, true
		}
	}
	return 0, 0, 0, false
}

// Span describes one recorded allocation: [Start, End) with element
// stride Stride (padded heap blocks keep the padded stride).
type Span struct {
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Stride int64 `json:"stride"`
}

// AllocSpans returns every shared-heap allocation in allocation
// order. The attribution layer uses it to freeze a complete
// address→object map after a run, covering spans no miss happened to
// touch.
func (m *Machine) AllocSpans() []Span {
	out := make([]Span, len(m.heapAllocs))
	for i, e := range m.heapAllocs {
		out[i] = Span{Start: e.start, End: e.end, Stride: e.stride}
	}
	return out
}

// Run executes the program to completion, passing every shared memory
// reference to sink (which may be nil). The scheduler grants turns
// round-robin; each turn advances a process until it issues one shared
// reference, reaches a barrier, finishes, or exhausts its slice of
// private computation.
func (m *Machine) Run(sink func(Ref)) error {
	sp := obs.BeginCtx(m.ctx, "vm.run")
	err := m.run(sink)
	if sp != nil {
		sp.Set("procs", int64(m.nprocs))
		sp.Set("instrs", m.TotalInstrs())
		sp.Set("refs", m.TotalRefs())
		sp.Set("spins", m.TotalSpins())
		sp.Set("barriers", m.barrierCount)
	}
	sp.End()
	return err
}

// slice is the number of private instructions a turn may run.
const slice = 20000

func (m *Machine) run(sink func(Ref)) error {
	if err := faultinject.Fire(m.ctx, "vm.run", ""); err != nil {
		return err
	}
	budget := m.max()
	// ctx poll period, in scheduler rounds: frequent enough that a
	// cancelled sweep drains in microseconds, rare enough that the
	// mutex inside ctx.Err() stays invisible next to simulation cost.
	const pollEvery = 256
	for round := 0; ; round++ {
		if m.ctx != nil && round%pollEvery == 0 {
			if err := m.ctx.Err(); err != nil {
				return err
			}
		}
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
			if err := m.step(p, budget, sink); err != nil {
				return err
			}
		}
		if done == m.nprocs {
			return nil
		}
		if !anyRunning {
			// Everyone is waiting: release the barrier if every live
			// process reached it; otherwise we are deadlocked.
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

func (m *Machine) max() int64 {
	if m.MaxInstrs > 0 {
		return m.MaxInstrs
	}
	return 1e9
}

func (m *Machine) fail(p *Proc, pc int, format string, args ...any) error {
	fn := p.frames[len(p.frames)-1].fn
	line := 0
	if pc < len(fn.Code) {
		line = fn.Code[pc].Line
	}
	return &RunError{Proc: p.ID, Fn: fn.Name, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// enter pushes a frame for fn, popping its arguments off the operand
// stack into fresh locals, and makes it the top frame. The caller's
// return address is p.pc.
func (p *Proc) enter(fn *Func, code []Instr) {
	lbase := 0
	if n := len(p.frames); n > 0 {
		caller := &p.frames[n-1]
		caller.pc = p.pc
		lbase = caller.lbase + caller.fn.NLocals
	}
	if need := lbase + fn.NLocals; need > len(p.slots) {
		p.slots = slices.Grow(p.slots, need-len(p.slots))[:need]
	}
	locals := p.slots[lbase : lbase+fn.NLocals]
	clear(locals)
	for i := fn.NParams - 1; i >= 0; i-- {
		p.sp--
		locals[i] = p.stack[p.sp]
	}
	p.frames = append(p.frames, frame{fn: fn, code: code, lbase: lbase, privMark: p.bump})
	p.code, p.pc, p.locals = code, 0, locals
}

// leave pops the top frame and makes its caller's the top one again.
// It reports false when the popped frame was the last.
func (p *Proc) leave() bool {
	n := len(p.frames) - 1
	p.bump = p.frames[n].privMark
	p.frames = p.frames[:n]
	if n == 0 {
		return false
	}
	f := &p.frames[n-1]
	p.code, p.pc, p.locals = f.code, f.pc, p.slots[f.lbase:f.lbase+f.fn.NLocals]
	return true
}

// step advances one process until it emits a shared reference, blocks,
// finishes, or runs out of its slice of private instructions.
//
// The top frame's code, pc and locals, the operand stack pointer and
// the instruction count live in locals, reloaded only on call and
// return and written back before every exit. The common instructions
// run in a fast loop that calls no function, so its state stays in
// registers (Go keeps no register across a call); an instruction that
// may fail, call or return, allocate, synchronize, or touch memory the
// fast paths leave alone drops to the general path, which runs it
// alone. A turn ends when the count reaches stop: the slice's end, or
// the step budget, at which point the next instruction fails exactly
// as it would have one instruction at a time.
func (m *Machine) step(p *Proc, budget int64, sink func(Ref)) (err error) {
	instrs := p.Instrs
	sliceEnd := instrs + slice
	stop := min(sliceEnd, budget)
	code, pc, locals := p.code, p.pc, p.locals
	stk, sp := p.stack, p.sp
	var ref Ref

	for {
	fast:
		for instrs != stop && uint(pc) < uint(len(code)) {
			in := &code[pc]
			switch in.Op {
			case OpNop:
				pc++
			case OpPush:
				if uint(sp) >= uint(len(stk)) {
					break fast
				}
				stk[sp] = in.A
				sp++
				pc++
			case OpPushPid:
				if uint(sp) >= uint(len(stk)) {
					break fast
				}
				stk[sp] = int64(p.ID)
				sp++
				pc++
			case OpPushNP:
				if uint(sp) >= uint(len(stk)) {
					break fast
				}
				stk[sp] = int64(m.nprocs)
				sp++
				pc++
			case OpLoadLocal:
				if uint(sp) >= uint(len(stk)) {
					break fast
				}
				stk[sp] = locals[in.A]
				sp++
				pc++
			case OpStoreLocal:
				sp--
				locals[in.A] = stk[sp]
				pc++
			case OpPop:
				sp--
				pc++

			// A fused op runs its whole sequence and counts every
			// instruction of it, or leaves it to the general path.
			case opScaleAdd: // push A; muli; addi
				if stop-instrs < 3 {
					break fast
				}
				instrs += 2
				sp--
				stk[sp-1] += stk[sp] * in.A
				pc += 3
			case opCheckScaleAdd: // check B; push A; muli; addi
				idx := stk[sp-1]
				if idx < 0 || idx >= in.B || stop-instrs < 4 {
					break fast
				}
				instrs += 3
				sp--
				stk[sp-1] += idx * in.A
				pc += 4
			case opPushLoadScale: // push A; loadl B; check d; push s; muli; addi
				sub := &code[pc+2]
				idx := locals[in.B]
				if idx < 0 || idx >= sub.B || stop-instrs < 6 || uint(sp) >= uint(len(stk)) {
					break fast
				}
				instrs += 5
				stk[sp] = in.A + idx*sub.A
				sp++
				pc += 6
			case opPidScale: // pushpid; check B; push A; muli; addi
				if int64(p.ID) >= in.B || stop-instrs < 5 {
					break fast
				}
				instrs += 4
				stk[sp-1] += int64(p.ID) * in.A
				pc += 5
			case opPushPidScale: // push A; pushpid; check d; push s; muli; addi
				sub := &code[pc+1]
				if int64(p.ID) >= sub.B || stop-instrs < 6 || uint(sp) >= uint(len(stk)) {
					break fast
				}
				instrs += 5
				stk[sp] = in.A + int64(p.ID)*sub.A
				sp++
				pc += 6
			case opIncLocal: // loadl A; push B; addi; storel A
				if stop-instrs < 4 {
					break fast
				}
				instrs += 3
				locals[in.A] += in.B
				pc += 4
			case opIncJmp: // loadl A; push B; addi; storel A; jmp t
				if stop-instrs < 5 {
					break fast
				}
				instrs += 4
				locals[in.A] += in.B
				pc = int(code[pc+4].A)
			case opStoreJmp: // storel A; jmp B
				if stop-instrs < 2 {
					break fast
				}
				instrs++
				sp--
				locals[in.A] = stk[sp]
				pc = int(in.B)
			case opLtJz: // loadl A; push B; lti; jz t
				if stop-instrs < 4 {
					break fast
				}
				instrs += 3
				if locals[in.A] < in.B {
					pc += 4
				} else {
					pc = int(code[pc+3].A)
				}
			case opLtLocalJz: // loadl A; loadl B; lti; jz t
				if stop-instrs < 4 {
					break fast
				}
				instrs += 3
				if locals[in.A] < locals[in.B] {
					pc += 4
				} else {
					pc = int(code[pc+3].A)
				}
			case opNeJz: // loadl A; push B; nei; jz t
				if stop-instrs < 4 {
					break fast
				}
				instrs += 3
				if locals[in.A] != in.B {
					pc += 4
				} else {
					pc = int(code[pc+3].A)
				}

			case OpLoad4:
				addr := stk[sp-1]
				if addr&PrivTag != 0 {
					off := addr &^ PrivTag
					if off < 0 || off+4 > p.priv.size {
						break fast
					}
					v, ok := p.priv.load4(off)
					if !ok {
						break fast
					}
					stk[sp-1] = v
					pc++
					break
				}
				if addr < nullPage || addr+4 > m.mem.size {
					break fast
				}
				v, ok := m.mem.load4(addr)
				if !ok {
					break fast
				}
				stk[sp-1] = v
				pc++
				instrs++
				ref = Ref{Proc: p.ID, Addr: addr, Size: 4}
				goto emit
			case OpLoad8:
				addr := stk[sp-1]
				if addr&PrivTag != 0 {
					off := addr &^ PrivTag
					if off < 0 || off+8 > p.priv.size {
						break fast
					}
					v, ok := p.priv.load8(off)
					if !ok {
						break fast
					}
					stk[sp-1] = v
					pc++
					break
				}
				if addr < nullPage || addr+8 > m.mem.size {
					break fast
				}
				v, ok := m.mem.load8(addr)
				if !ok {
					break fast
				}
				stk[sp-1] = v
				pc++
				instrs++
				ref = Ref{Proc: p.ID, Addr: addr, Size: 8}
				goto emit
			case OpStore4:
				addr, v := stk[sp-1], stk[sp-2]
				if addr&PrivTag != 0 {
					off := addr &^ PrivTag
					if off < 0 || off+4 > p.priv.size || !p.priv.store4(off, v) {
						break fast
					}
					sp -= 2
					pc++
					break
				}
				if addr < nullPage || addr+4 > m.mem.size || !m.mem.store4(addr, v) {
					break fast
				}
				sp -= 2
				pc++
				instrs++
				ref = Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true}
				goto emit
			case OpStore8:
				addr, v := stk[sp-1], stk[sp-2]
				if addr&PrivTag != 0 {
					off := addr &^ PrivTag
					if off < 0 || off+8 > p.priv.size || !p.priv.store8(off, v) {
						break fast
					}
					sp -= 2
					pc++
					break
				}
				if addr < nullPage || addr+8 > m.mem.size || !m.mem.store8(addr, v) {
					break fast
				}
				sp -= 2
				pc++
				instrs++
				ref = Ref{Proc: p.ID, Addr: addr, Size: 8, Write: true}
				goto emit

			case OpCheck:
				if idx := stk[sp-1]; idx < 0 || idx >= in.A {
					break fast
				}
				pc++

			case OpAddI:
				sp--
				stk[sp-1] += stk[sp]
				pc++
			case OpSubI:
				sp--
				stk[sp-1] -= stk[sp]
				pc++
			case OpMulI:
				sp--
				stk[sp-1] *= stk[sp]
				pc++
			case OpDivI:
				if stk[sp-1] == 0 {
					break fast
				}
				sp--
				stk[sp-1] /= stk[sp]
				pc++
			case OpModI:
				if stk[sp-1] == 0 {
					break fast
				}
				sp--
				stk[sp-1] %= stk[sp]
				pc++
			case OpNegI:
				stk[sp-1] = -stk[sp-1]
				pc++

			case OpAddF:
				sp--
				stk[sp-1] = fp(pf(stk[sp-1]) + pf(stk[sp]))
				pc++
			case OpSubF:
				sp--
				stk[sp-1] = fp(pf(stk[sp-1]) - pf(stk[sp]))
				pc++
			case OpMulF:
				sp--
				stk[sp-1] = fp(pf(stk[sp-1]) * pf(stk[sp]))
				pc++
			case OpDivF:
				sp--
				stk[sp-1] = fp(pf(stk[sp-1]) / pf(stk[sp]))
				pc++
			case OpNegF:
				stk[sp-1] = fp(-pf(stk[sp-1]))
				pc++
			case OpI2F:
				stk[sp-1] = fp(float64(stk[sp-1]))
				pc++

			case OpEqI:
				sp--
				stk[sp-1] = b2i(stk[sp-1] == stk[sp])
				pc++
			case OpNeI:
				sp--
				stk[sp-1] = b2i(stk[sp-1] != stk[sp])
				pc++
			case OpLtI:
				sp--
				stk[sp-1] = b2i(stk[sp-1] < stk[sp])
				pc++
			case OpLeI:
				sp--
				stk[sp-1] = b2i(stk[sp-1] <= stk[sp])
				pc++
			case OpGtI:
				sp--
				stk[sp-1] = b2i(stk[sp-1] > stk[sp])
				pc++
			case OpGeI:
				sp--
				stk[sp-1] = b2i(stk[sp-1] >= stk[sp])
				pc++
			case OpEqF:
				sp--
				stk[sp-1] = b2i(pf(stk[sp-1]) == pf(stk[sp]))
				pc++
			case OpNeF:
				sp--
				stk[sp-1] = b2i(pf(stk[sp-1]) != pf(stk[sp]))
				pc++
			case OpLtF:
				sp--
				stk[sp-1] = b2i(pf(stk[sp-1]) < pf(stk[sp]))
				pc++
			case OpLeF:
				sp--
				stk[sp-1] = b2i(pf(stk[sp-1]) <= pf(stk[sp]))
				pc++
			case OpGtF:
				sp--
				stk[sp-1] = b2i(pf(stk[sp-1]) > pf(stk[sp]))
				pc++
			case OpGeF:
				sp--
				stk[sp-1] = b2i(pf(stk[sp-1]) >= pf(stk[sp]))
				pc++
			case OpNot:
				stk[sp-1] = b2i(stk[sp-1] == 0)
				pc++

			case OpJmp:
				pc = int(in.A)
			case OpJz:
				sp--
				if stk[sp] == 0 {
					pc = int(in.A)
				} else {
					pc++
				}

			default:
				break fast
			}
			instrs++
		}

		// The general path: the turn's end, or one instruction the fast
		// loop declined.
		if instrs == stop {
			if instrs == sliceEnd {
				goto out
			}
			if pc < len(code) {
				instrs++
				err = m.fail(p, pc, "step budget exceeded (%d instrs) at pc=%d (runaway program?)", instrs-1, pc)
				goto out
			}
		}
		if uint(pc) >= uint(len(code)) {
			err = m.fail(p, pc, "fell off end of code")
			goto out
		}
		if sp == len(stk) {
			// A push found the stack full: grow it and retry. No
			// instruction pushes more than one value, so the general
			// path below always has room.
			stk = append(stk, 0)
			stk = stk[:cap(stk)]
			p.stack = stk
			continue
		}
		in := &code[pc]
		instrs++

		switch in.Op {
		// A fused op lands here when its check fails or the turn ends
		// inside its sequence: its head runs alone, and the rest of the
		// sequence runs from the ops that follow it.
		case opScaleAdd, opPushLoadScale, opPushPidScale: // push A
			stk[sp] = in.A
			sp++
			pc++
		case opCheckScaleAdd: // check B
			if idx := stk[sp-1]; idx < 0 || idx >= in.B {
				err = m.fail(p, pc, "index %d out of range [0,%d)", idx, in.B)
				goto out
			}
			pc++
		case opIncLocal, opIncJmp, opLtJz, opLtLocalJz, opNeJz: // loadl A
			stk[sp] = locals[in.A]
			sp++
			pc++
		case opPidScale: // pushpid
			stk[sp] = int64(p.ID)
			sp++
			pc++
		case opStoreJmp: // storel A
			sp--
			locals[in.A] = stk[sp]
			pc++
		case OpLoad4, OpLoad8:
			size := int64(4)
			if in.Op == OpLoad8 {
				size = 8
			}
			addr := stk[sp-1]
			if addr&PrivTag != 0 {
				off := addr &^ PrivTag
				if off < 0 || off+size > p.priv.size {
					err = m.fail(p, pc, "private access out of range %#x", off)
					goto out
				}
				if size == 4 {
					stk[sp-1] = p.priv.read4(off)
				} else {
					stk[sp-1] = p.priv.read8(off)
				}
				pc++
				continue
			}
			if addr >= 0 && addr < nullPage {
				err = m.fail(p, pc, "null pointer dereference (address %#x)", addr)
				goto out
			}
			if addr <= 0 || addr+size > m.mem.size {
				err = m.fail(p, pc, "shared load out of range %#x", addr)
				goto out
			}
			if size == 4 {
				stk[sp-1] = m.mem.read4(addr)
			} else {
				stk[sp-1] = m.mem.read8(addr)
			}
			pc++
			ref = Ref{Proc: p.ID, Addr: addr, Size: int8(size)}
			goto emit
		case OpStore4, OpStore8:
			size := int64(4)
			if in.Op == OpStore8 {
				size = 8
			}
			addr, v := stk[sp-1], stk[sp-2]
			sp -= 2
			if addr&PrivTag != 0 {
				off := addr &^ PrivTag
				if off < 0 || off+size > p.priv.size {
					err = m.fail(p, pc, "private access out of range %#x", off)
					goto out
				}
				if size == 4 {
					p.priv.write4(off, v)
				} else {
					p.priv.write8(off, v)
				}
				pc++
				continue
			}
			if addr >= 0 && addr < nullPage {
				err = m.fail(p, pc, "null pointer dereference (address %#x)", addr)
				goto out
			}
			if addr <= 0 || addr+size > m.mem.size {
				err = m.fail(p, pc, "shared store out of range %#x", addr)
				goto out
			}
			if size == 4 {
				m.mem.write4(addr, v)
			} else {
				m.mem.write8(addr, v)
			}
			pc++
			ref = Ref{Proc: p.ID, Addr: addr, Size: int8(size), Write: true}
			goto emit
		case OpIndexPtr:
			sp--
			idx, ptr := stk[sp], stk[sp-1]
			if ptr == 0 {
				err = m.fail(p, pc, "null pointer dereference")
				goto out
			}
			stk[sp-1] = ptr + idx*m.strideOf(ptr, in.A)
			pc++
		case OpCheck:
			if idx := stk[sp-1]; idx < 0 || idx >= in.A {
				err = m.fail(p, pc, "index %d out of range [0,%d)", idx, in.A)
				goto out
			}
			pc++
		case OpDivI:
			if stk[sp-1] == 0 {
				err = m.fail(p, pc, "integer division by zero")
				goto out
			}
			sp--
			stk[sp-1] /= stk[sp]
			pc++
		case OpModI:
			if stk[sp-1] == 0 {
				err = m.fail(p, pc, "integer modulo by zero")
				goto out
			}
			sp--
			stk[sp-1] %= stk[sp]
			pc++
		case OpCall:
			p.pc, p.sp = pc+1, sp
			p.enter(m.prog.Funcs[in.A], m.code[in.A])
			code, pc, locals = p.code, p.pc, p.locals
			stk, sp = p.stack, p.sp
		case OpRet, OpRetV:
			var v int64
			if in.Op == OpRetV {
				sp--
				v = stk[sp]
			}
			if !p.leave() {
				p.status = Done
				goto out
			}
			if in.Op == OpRetV {
				stk[sp] = v
				sp++
			}
			code, pc, locals = p.code, p.pc, p.locals
		case OpHalt:
			p.status = Done
			goto out
		case OpAllocHeap:
			stride := in.A
			count := int64(1)
			align := int64(8)
			if in.B&1 != 0 {
				sp--
				count = stk[sp]
			}
			if a := in.B >> 1; a > align {
				align = a
			}
			if count < 0 {
				err = m.fail(p, pc, "negative allocation count %d", count)
				goto out
			}
			m.heapPtr = align64(m.heapPtr, align)
			addr := m.heapPtr
			if !allocFits(addr, stride, count, m.prog.ArenaBase) {
				err = m.fail(p, pc, "shared heap exhausted")
				goto out
			}
			total := stride * count
			m.heapPtr += total
			m.heapAllocs = append(m.heapAllocs, allocEntry{addr, addr + total, stride})
			stk[sp] = addr
			sp++
			pc++
		case OpAllocArena:
			stride := in.A
			count := int64(1)
			if in.B&1 != 0 {
				sp--
				count = stk[sp]
			}
			if count < 0 {
				err = m.fail(p, pc, "negative allocation count %d", count)
				goto out
			}
			base := align64(m.arenaPtr[p.ID], 8)
			limit := m.prog.ArenaBase + int64(p.ID+1)*m.prog.ArenaSize
			if !allocFits(base, stride, count, limit) {
				err = m.fail(p, pc, "process arena exhausted")
				goto out
			}
			total := stride * count
			m.arenaPtr[p.ID] = base + total
			m.arenaAllocs[p.ID] = append(m.arenaAllocs[p.ID], allocEntry{base, base + total, stride})
			stk[sp] = base
			sp++
			pc++
		case OpBarrier:
			p.status = AtBarrier
			pc++
			goto out
		case OpLockAcq:
			addr := stk[sp-1]
			if addr&PrivTag != 0 || addr <= 0 || addr+4 > m.mem.size {
				err = m.fail(p, pc, "invalid lock address %#x", addr)
				goto out
			}
			held := m.mem.read4(addr) != 0
			p.Instrs = instrs
			p.Refs++
			if sink != nil {
				sink(Ref{Proc: p.ID, Addr: addr, Size: 4})
			}
			if held {
				// Spin: keep the address on the stack and retry this
				// instruction on the next turn.
				p.Spins++
				goto out
			}
			sp--
			m.mem.write4(addr, 1)
			pc++
			ref = Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true}
			goto emit
		case OpLockRel:
			sp--
			addr := stk[sp]
			if addr&PrivTag != 0 || addr <= 0 || addr+4 > m.mem.size {
				err = m.fail(p, pc, "invalid lock address %#x", addr)
				goto out
			}
			m.mem.write4(addr, 0)
			pc++
			ref = Ref{Proc: p.ID, Addr: addr, Size: 4, Write: true}
			goto emit
		case OpLocalArr:
			size := align64(in.A, 8)
			base := p.bump
			if base+size > p.priv.size {
				err = m.fail(p, pc, "private space exhausted")
				goto out
			}
			p.bump += size
			p.priv.zero(base, base+size) // fresh storage per execution
			locals[in.B] = base | PrivTag
			pc++
		default:
			err = m.fail(p, pc, "bad opcode %s", p.frames[len(p.frames)-1].fn.Code[pc].Op)
			goto out
		}
	}

emit:
	// The instruction issued one shared reference: the turn ends.
	p.Instrs, p.sp, p.pc = instrs, sp, pc
	p.Refs++
	if sink != nil {
		sink(ref)
	}
	return nil

out:
	p.Instrs, p.sp, p.pc = instrs, sp, pc
	return err
}

// fuse returns a copy of code in which each hot sequence begins with
// one fused op that runs the whole sequence and counts its
// instructions:
//
//   - a subscript, [check d] push s; muli; addi, as indexedArray emits
//     it, and a whole element address, push base; loadl i or
//     [push base;] pushpid, then the checked subscript;
//   - x = x + c: loadl x; push c; addi; storel x, alone or with the
//     jmp that follows it;
//   - a loop's back edge, storel x; jmp t;
//   - a loop's test, loadl i; push n or loadl n; lti; jz t, and
//     loadl x; push c; nei; jz t.
//
// The fused op at pc runs exactly the original instructions from pc.
// The tail stays in place, so every pc, line and jump target keeps its
// meaning, and execution that enters a sequence past its head runs
// the ops from there on, fused or not, with the same effect. An op of
// Func.Code that collides with a fused op's number becomes an invalid
// one, so it still fails as a bad opcode.
func fuse(code []Instr) []Instr {
	out := slices.Clone(code)
	for i := range out {
		if out[i].Op >= opScaleAdd {
			out[i].Op = opInvalid
		}
	}
	is := func(i int, ops ...Op) bool {
		if i+len(ops) > len(code) {
			return false
		}
		for k, op := range ops {
			if code[i+k].Op != op {
				return false
			}
		}
		return true
	}
	next := func(i int, op Op) bool { return i+1 < len(out) && out[i+1].Op == op }
	// Backwards, so that out[i+1:] is final when out[i] is decided: a
	// subscript's fused ops build on the one that begins their tail.
	for i := len(code) - 1; i >= 0; i-- {
		in := code[i]
		fused := Instr{Line: in.Line}
		switch {
		case is(i, OpPush, OpMulI, OpAddI):
			fused.Op, fused.A = opScaleAdd, in.A
		case in.Op == OpCheck && next(i, opScaleAdd):
			fused.Op, fused.A, fused.B = opCheckScaleAdd, out[i+1].A, in.A
		case is(i, OpPush, OpLoadLocal) && next(i+1, opCheckScaleAdd):
			fused.Op, fused.A, fused.B = opPushLoadScale, in.A, code[i+1].A
		case in.Op == OpPushPid && next(i, opCheckScaleAdd):
			fused.Op, fused.A, fused.B = opPidScale, out[i+1].A, out[i+1].B
		case in.Op == OpPush && next(i, opPidScale):
			fused.Op, fused.A = opPushPidScale, in.A
		case is(i, OpLoadLocal, OpPush, OpAddI, OpStoreLocal, OpJmp) && code[i+3].A == in.A:
			fused.Op, fused.A, fused.B = opIncJmp, in.A, code[i+1].A
		case is(i, OpLoadLocal, OpPush, OpAddI, OpStoreLocal) && code[i+3].A == in.A:
			fused.Op, fused.A, fused.B = opIncLocal, in.A, code[i+1].A
		case is(i, OpStoreLocal, OpJmp):
			fused.Op, fused.A, fused.B = opStoreJmp, in.A, code[i+1].A
		case is(i, OpLoadLocal, OpPush, OpLtI, OpJz):
			fused.Op, fused.A, fused.B = opLtJz, in.A, code[i+1].A
		case is(i, OpLoadLocal, OpLoadLocal, OpLtI, OpJz):
			fused.Op, fused.A, fused.B = opLtLocalJz, in.A, code[i+1].A
		case is(i, OpLoadLocal, OpPush, OpNeI, OpJz):
			fused.Op, fused.A, fused.B = opNeJz, in.A, code[i+1].A
		default:
			continue
		}
		out[i] = fused
	}
	return out
}

// strideOf resolves the element stride of the allocation containing
// addr (fallback: the static element size).
func (m *Machine) strideOf(addr, fallback int64) int64 {
	var table []allocEntry
	if addr >= m.prog.ArenaBase {
		pid := (addr - m.prog.ArenaBase) / m.prog.ArenaSize
		if pid >= 0 && int(pid) < m.nprocs {
			table = m.arenaAllocs[pid]
		}
	} else if addr >= m.prog.HeapBase {
		table = m.heapAllocs
	} else {
		return fallback // pointers into globals do not occur, but be safe
	}
	// The first entry starting above addr; the one before may hold it.
	lo, hi := 0, len(table)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if table[mid].start > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 && addr < table[lo-1].end {
		return table[lo-1].stride
	}
	return fallback
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func pf(v int64) float64 { return math.Float64frombits(uint64(v)) }
func fp(f float64) int64 { return int64(math.Float64bits(f)) }

// allocFits reports whether count elements of stride bytes starting at
// base end at or below limit. A product that overflows int64 does not
// fit, so a huge count cannot wrap past the check.
func allocFits(base, stride, count, limit int64) bool {
	if stride > 0 && count > math.MaxInt64/stride {
		return false
	}
	return stride*count <= limit-base
}

func align64(v, a int64) int64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}
