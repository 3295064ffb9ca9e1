// Package vm compiles checked parc programs to bytecode and executes
// them SPMD-style on a stepped virtual machine.
//
// The machine plays the role of the paper's traced multiprocessor
// execution [EKKL90]: every process runs the same code with its own
// pid, the scheduler interleaves processes round-robin one shared
// memory reference at a time, and barriers and locks synchronize
// exactly as the coherence study requires (spinning on a lock word
// generates the read traffic that makes lock co-allocation expensive).
// The emitted reference stream drives the multiprocessor cache
// simulator.
package vm

import "fmt"

// Op is a bytecode opcode.
type Op uint8

// Opcodes. The stack holds 64-bit raw values: integers as int64,
// doubles as float64 bits, pointers as byte addresses into the shared
// (or tagged private) address space.
const (
	OpNop Op = iota

	// Constants and built-ins.
	OpPush    // push immediate A (int64)
	OpPushPid // push process id
	OpPushNP  // push process count

	// Locals (frame slots).
	OpLoadLocal  // push locals[A]
	OpStoreLocal // locals[A] = pop

	// Memory. Addresses with the private tag bit access the per-process
	// private space (untraced); others access shared memory (traced).
	OpLoad4  // pop addr; push sign-extended 32-bit load
	OpLoad8  // pop addr; push 64-bit load
	OpStore4 // pop addr, pop value; 32-bit store
	OpStore8 // pop addr, pop value; 64-bit store

	// Pointer indexing: pop index, pop pointer; push pointer +
	// index*stride, where the stride comes from the allocation record
	// of the pointed-to block (this is how padded heap elements keep
	// working without retyping every pointer). A is the static element
	// size used for bounds checking and as the fallback stride.
	OpIndexPtr

	// Bounds check: top of stack is an index; trap unless 0 <= idx < A.
	OpCheck

	// Integer arithmetic.
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpNegI

	// Double arithmetic (operands are float64 bit patterns).
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF
	OpI2F // int64 -> float64 bits

	// Comparisons (push 1 or 0 as int64).
	OpEqI
	OpNeI
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpEqF
	OpNeF
	OpLtF
	OpLeF
	OpGtF
	OpGeF
	OpNot

	// Control flow.
	OpJmp  // pc = A
	OpJz   // pop; if zero pc = A
	OpCall // call function A
	OpRet  // return, no value
	OpRetV // pop value, return it

	// Allocation. A is the element stride in bytes. Bit 0 of B is set
	// when the element count is on the stack (otherwise it is 1); B>>1
	// is the required start alignment in bytes when above 8 (padded
	// heap blocks start on their padding boundary).
	OpAllocHeap  // push address of zeroed shared heap block
	OpAllocArena // push address in the executing process's arena

	// Synchronization.
	OpBarrier
	OpLockAcq // pop lock address; spin until acquired
	OpLockRel // pop lock address; release

	// Local array allocation: reserve A bytes of per-process private
	// frame storage and store its tagged address in locals[B].
	OpLocalArr

	OpHalt // end of process (falling off main)
	OpPop  // discard top of stack

	// Fused sequences. The machine builds them from the ops above when
	// it loads a program (see fuse); the compiler never emits them and
	// Func.Code never holds them. Where a fused op needs more operands
	// than A and B, it reads them from its tail: d and s are the B and
	// A of the opCheckScaleAdd at pc+2 (opPushLoadScale) or of the
	// opPidScale at pc+1 (opPushPidScale), and t is the A of the jmp or
	// jz that ends the sequence.
	opScaleAdd      // push A; muli; addi
	opCheckScaleAdd // check B; push A; muli; addi
	opPushLoadScale // push A; loadl B; check d; push s; muli; addi
	opPidScale      // pushpid; check B; push A; muli; addi
	opPushPidScale  // push A; pushpid; check d; push s; muli; addi
	opIncLocal      // loadl A; push B; addi; storel A
	opIncJmp        // loadl A; push B; addi; storel A; jmp t
	opStoreJmp      // storel A; jmp B
	opLtJz          // loadl A; push B; lti; jz t
	opLtLocalJz     // loadl A; loadl B; lti; jz t
	opNeJz          // loadl A; push B; nei; jz t
	opFusedEnd      // one past the last fused op

	opInvalid Op = 255 // stands in for an unknown op in fused code
)

var opNames = [...]string{
	OpNop: "nop", OpPush: "push", OpPushPid: "pushpid", OpPushNP: "pushnp",
	OpLoadLocal: "loadl", OpStoreLocal: "storel",
	OpLoad4: "load4", OpLoad8: "load8", OpStore4: "store4", OpStore8: "store8",
	OpIndexPtr: "indexptr", OpCheck: "check",
	OpAddI: "addi", OpSubI: "subi", OpMulI: "muli", OpDivI: "divi", OpModI: "modi", OpNegI: "negi",
	OpAddF: "addf", OpSubF: "subf", OpMulF: "mulf", OpDivF: "divf", OpNegF: "negf", OpI2F: "i2f",
	OpEqI: "eqi", OpNeI: "nei", OpLtI: "lti", OpLeI: "lei", OpGtI: "gti", OpGeI: "gei",
	OpEqF: "eqf", OpNeF: "nef", OpLtF: "ltf", OpLeF: "lef", OpGtF: "gtf", OpGeF: "gef",
	OpNot: "not",
	OpJmp: "jmp", OpJz: "jz", OpCall: "call", OpRet: "ret", OpRetV: "retv",
	OpAllocHeap: "alloch", OpAllocArena: "alloca",
	OpBarrier: "barrier", OpLockAcq: "lockacq", OpLockRel: "lockrel",
	OpLocalArr: "localarr", OpHalt: "halt", OpPop: "pop",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// Instr is one bytecode instruction.
type Instr struct {
	Op   Op
	A, B int64
	// Line is the source line for runtime diagnostics.
	Line int
}

// Func is a compiled function.
type Func struct {
	Name    string
	ID      int
	NParams int
	NLocals int // including params
	Code    []Instr
}

// PrivTag marks addresses in the per-process private space (private
// globals and local arrays). Private accesses are real loads/stores in
// the VM but are not part of the shared reference trace.
const PrivTag int64 = 1 << 62

// Program is a fully compiled parc program.
type Program struct {
	Funcs  []*Func
	Main   int // index of main
	FuncID map[string]int
	// SharedEnd is the size of the shared address space (from layout).
	SharedEnd int64
	// HeapBase/ArenaBase/ArenaSize replicate the layout's map for the
	// machine's allocators.
	HeapBase  int64
	ArenaBase int64
	ArenaSize int64
	// PrivSize is the per-process private space size (private globals
	// plus headroom for local arrays).
	PrivSize int64
	// Nprocs is the configured process count the program was compiled
	// for (array extents may depend on it).
	Nprocs int
}
