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
