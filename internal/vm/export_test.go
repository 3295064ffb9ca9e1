package vm

import "fmt"

// Mem returns a copy of the shared memory image, Size() bytes long.
// Shared memory is allocated lazily, 4 KiB pages on first write, and
// the image reads untouched pages as zero; building it costs a
// full-size allocation, which the machine itself never makes.
func (m *Machine) Mem() []byte {
	out := make([]byte, m.mem.size)
	for i, pg := range m.mem.pages {
		if pg != nil {
			copy(out[int64(i)<<pageShift:], pg[:])
		}
	}
	return out
}

// Barriers returns the number of barrier episodes executed.
func (m *Machine) Barriers() int64 { return m.barrierCount }

// Disasm renders a function's code for test failure messages.
func (f *Func) Disasm() string {
	s := fmt.Sprintf("func %s (params=%d locals=%d)\n", f.Name, f.NParams, f.NLocals)
	for i, in := range f.Code {
		s += fmt.Sprintf("  %4d  %-9s %d %d\n", i, in.Op, in.A, in.B)
	}
	return s
}

// Fuse is the machine's fusion pass (see fuse).
func Fuse(code []Instr) []Instr { return fuse(code) }

// FusedOps returns every fused op.
func FusedOps() []Op {
	var ops []Op
	for op := opScaleAdd; op < opFusedEnd; op++ {
		ops = append(ops, op)
	}
	return ops
}

// FusedSeq names, for each fused op, the original sequence it runs, one
// op per instruction. The oracle tests split every fused op through it,
// and fail on a fused op it does not name.
var FusedSeq = map[Op][]Op{
	opScaleAdd:      {OpPush, OpMulI, OpAddI},
	opCheckScaleAdd: {OpCheck, OpPush, OpMulI, OpAddI},
	opPushLoadScale: {OpPush, OpLoadLocal, OpCheck, OpPush, OpMulI, OpAddI},
	opPidScale:      {OpPushPid, OpCheck, OpPush, OpMulI, OpAddI},
	opPushPidScale:  {OpPush, OpPushPid, OpCheck, OpPush, OpMulI, OpAddI},
	opIncLocal:      {OpLoadLocal, OpPush, OpAddI, OpStoreLocal},
	opIncJmp:        {OpLoadLocal, OpPush, OpAddI, OpStoreLocal, OpJmp},
	opStoreJmp:      {OpStoreLocal, OpJmp},
	opLtJz:          {OpLoadLocal, OpPush, OpLtI, OpJz},
	opLtLocalJz:     {OpLoadLocal, OpLoadLocal, OpLtI, OpJz},
	opNeJz:          {OpLoadLocal, OpPush, OpNeI, OpJz},
}
