package sideeffect

import (
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/analysis/affine"
	"falseshare/internal/analysis/nonconc"
	"falseshare/internal/analysis/pdv"
	"falseshare/internal/analysis/procs"
	"falseshare/internal/analysis/rsd"
	"falseshare/internal/cfg"
	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/token"
	"falseshare/internal/lang/types"
)

// Config tunes the analysis. The zero value is completed by
// (*Config).defaults to the paper's settings.
type Config struct {
	// Nprocs is the process (= processor) count assumed by the
	// analysis.
	Nprocs int
	// RSDLimit caps the descriptors kept per object (paper: 10).
	RSDLimit int
	// StaticProfiling can be disabled for ablation: all weights 1.
	StaticProfiling bool
}

// Static profiling's frequency multipliers: a loop whose trip count is
// not a known constant counts 10 iterations, and each conditional
// level halves the frequency.
const (
	loopWeight   = 10.0
	branchWeight = 0.5
)

func (c Config) defaults() Config {
	if c.Nprocs <= 0 {
		c.Nprocs = 12
	}
	if c.RSDLimit == 0 {
		c.RSDLimit = rsd.DefaultLimit
	}
	return c
}

// Access is one summarized side effect: a read or write of a shared
// object by a set of processes in a set of phases, with an estimated
// frequency weight.
type Access struct {
	Obj    Object
	R      rsd.RSD
	Write  bool
	Procs  procs.Set
	Phases nonconc.PhaseSet
	Weight float64
	Prov   Prov // provenance of the base pointer (field/heap objects)
	Pos    token.Pos
}

// ObjectSummary aggregates the accesses of one object.
type ObjectSummary struct {
	Obj        Object
	Reads      []rsd.Weighted
	Writes     []rsd.Weighted
	ReadW      float64
	WriteW     float64
	ReadProcs  procs.Set
	WriteProcs procs.Set
	// ReadProv/WriteProv join the provenance of pointer-based
	// accesses (fields and heap objects).
	ReadProv  Prov
	WriteProv Prov
	// PhaseWeight distributes total access weight over phases, for
	// dominant-pattern selection.
	PhaseWeight map[int]float64
	// Accesses keeps the raw accesses for diagnostics and tests.
	Accesses []*Access
}

// Summary is the program-wide side-effect summary.
type Summary struct {
	Config  Config
	Objects map[string]*ObjectSummary
	// FuncFreq is the interprocedural execution-frequency estimate per
	// function (main = 1).
	FuncFreq map[string]float64
	// RSD tallies descriptor-list maintenance across the analysis
	// (how often the paper's per-object cap forced lossy merging).
	RSD rsd.Counters
}

// SortedObjects returns object summaries ordered by total weight
// descending then name, for deterministic reporting.
func (s *Summary) SortedObjects() []*ObjectSummary {
	out := make([]*ObjectSummary, 0, len(s.Objects))
	for _, o := range s.Objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		wi, wj := out[i].ReadW+out[i].WriteW, out[j].ReadW+out[j].WriteW
		if wi != wj {
			return wi > wj
		}
		return out[i].Obj.Key() < out[j].Obj.Key()
	})
	return out
}

// String renders the summary for diagnostics.
func (s *Summary) String() string {
	var sb strings.Builder
	for _, o := range s.SortedObjects() {
		fmt.Fprintf(&sb, "%-24s rW=%9.1f wW=%9.1f rP=%s wP=%s rProv=%s wProv=%s\n",
			o.Obj.Key(), o.ReadW, o.WriteW, o.ReadProcs, o.WriteProcs, o.ReadProv, o.WriteProv)
		for _, w := range o.Writes {
			fmt.Fprintf(&sb, "    W %8.1f %s\n", w.Weight, w.R)
		}
		for _, r := range o.Reads {
			fmt.Fprintf(&sb, "    R %8.1f %s\n", r.Weight, r.R)
		}
	}
	return sb.String()
}

// Analyze runs the summary side-effect analysis over the whole
// program.
func Analyze(info *types.Info, prog *cfg.CallGraph, pdvs *pdv.Result,
	pr *procs.Result, ph *nonconc.Result, cfgc Config) *Summary {

	cfgc = cfgc.defaults()
	a := &analyzer{
		info: info, prog: prog, pdvs: pdvs, procsRes: pr, phases: ph,
		cfg:        cfgc,
		prov:       newProvenance(info, pdvs),
		siteWeight: map[*ast.CallExpr]float64{},
		sum: &Summary{
			Config:   cfgc,
			Objects:  map[string]*ObjectSummary{},
			FuncFreq: map[string]float64{},
		},
	}
	// Pass 1: walk every function once with unit weight, collecting
	// the (trip-count-aware) local weight of each call site.
	a.collecting = true
	for _, fn := range info.File.Funcs {
		a.functionWith(fn, 1)
	}
	a.collecting = false
	// Solve the interprocedural frequency fixed point from the
	// collected site weights.
	a.funcFrequencies()
	// Pass 2: the real walk, scaled by each function's frequency.
	for _, fn := range info.File.Funcs {
		a.functionWith(fn, a.sum.FuncFreq[fn.Name])
	}
	return a.sum
}

type analyzer struct {
	info     *types.Info
	prog     *cfg.CallGraph
	pdvs     *pdv.Result
	procsRes *procs.Result
	phases   *nonconc.Result
	cfg      Config
	prov     *provenance
	sum      *Summary

	// walking context
	fnName string
	graph  *cfg.Graph
	loops  []rsd.Loop
	weight float64
	// current statement context (procs/phases of the CFG node)
	curProcs  procs.Set
	curPhases nonconc.PhaseSet

	// collecting marks the first pass, which records trip-count-aware
	// call-site weights instead of emitting accesses.
	collecting bool
	siteWeight map[*ast.CallExpr]float64
}

// funcFrequencies estimates per-function execution frequencies by
// propagating the collected call-site weights from main to a fixed
// point (bounded iteration handles recursion).
func (a *analyzer) funcFrequencies() {
	for name := range a.prog.Graphs {
		a.sum.FuncFreq[name] = 0
	}
	a.sum.FuncFreq["main"] = 1
	for iter := 0; iter < 10; iter++ {
		changed := false
		next := map[string]float64{"main": 1}
		for _, site := range a.prog.Sites {
			if _, ok := a.prog.Graphs[site.Callee]; !ok {
				continue
			}
			next[site.Callee] += a.sum.FuncFreq[site.Caller] * a.siteWeight[site.Call]
		}
		const cap = 1e12
		for name := range a.prog.Graphs {
			v := next[name]
			if v > cap {
				v = cap
			}
			if name == "main" {
				v = 1
			}
			if v != a.sum.FuncFreq[name] {
				a.sum.FuncFreq[name] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// functionWith walks one function body at the given base weight.
func (a *analyzer) functionWith(fn *ast.FuncDecl, base float64) {
	a.fnName = fn.Name
	a.graph = a.prog.Graphs[fn.Name]
	a.loops = nil
	a.weight = base
	if a.weight == 0 {
		return // unreachable function
	}
	a.stmt(fn.Body)
}

// setStmtContext updates the per-statement process and phase sets.
func (a *analyzer) setStmtContext(s ast.Stmt) {
	a.curProcs = procs.All(a.procsRes.Nprocs)
	a.curPhases = 0
	if n, ok := a.graph.StmtNode[s]; ok {
		a.curProcs = a.procsRes.Node[n]
		if a.fnName == "main" {
			a.curPhases = a.phases.NodePhases[n]
		}
	}
	if a.fnName != "main" {
		a.curPhases = a.phases.FuncPhases[a.fnName]
	}
}

func (a *analyzer) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, st := range x.List {
			a.stmt(st)
		}
	case *ast.DeclStmt:
		if x.Init != nil {
			a.setStmtContext(s)
			a.read(x.Init)
		}
	case *ast.AssignStmt:
		a.setStmtContext(s)
		a.read(x.RHS)
		a.access(x.LHS, true)
	case *ast.ExprStmt:
		a.setStmtContext(s)
		a.read(x.X)
	case *ast.ReturnStmt:
		if x.X != nil {
			a.setStmtContext(s)
			a.read(x.X)
		}
	case *ast.AcquireStmt:
		a.setStmtContext(s)
		// Acquiring spins on the lock word: reads then a write.
		a.access(x.Lock, false)
		a.access(x.Lock, true)
	case *ast.ReleaseStmt:
		a.setStmtContext(s)
		a.access(x.Lock, true)
	case *ast.BarrierStmt:
		// synchronization only
	case *ast.IfStmt:
		a.setStmtContext(s)
		a.read(x.Cond)
		saved := a.weight
		if a.cfg.StaticProfiling {
			a.weight *= branchWeight
		}
		a.stmt(x.Then)
		if x.Else != nil {
			a.stmt(x.Else)
		}
		a.weight = saved
	case *ast.WhileStmt:
		a.setStmtContext(s)
		a.read(x.Cond)
		saved := a.weight
		savedLoops := len(a.loops)
		if a.cfg.StaticProfiling {
			a.weight *= loopWeight
		}
		// While loops carry no analyzable induction variable.
		a.stmt(x.Body)
		a.loops = a.loops[:savedLoops]
		a.weight = saved
	case *ast.ForStmt:
		a.forStmt(x)
	}
}

func (a *analyzer) forStmt(x *ast.ForStmt) {
	if x.Init != nil {
		a.stmt(x.Init)
	}
	a.setStmtContext(x)
	if x.Cond != nil {
		a.read(x.Cond)
	}

	loop, trip := a.loopInfo(x)
	saved := a.weight
	savedLoops := len(a.loops)
	if a.cfg.StaticProfiling {
		a.weight *= trip
	}
	if loop.IV != nil {
		a.loops = append(a.loops, loop)
	}
	a.stmt(x.Body)
	if x.Post != nil {
		a.stmt(x.Post)
	}
	a.loops = a.loops[:savedLoops]
	a.weight = saved
}

// loopInfo extracts the induction variable, bounds and step of a for
// loop and its estimated trip count.
func (a *analyzer) loopInfo(x *ast.ForStmt) (rsd.Loop, float64) {
	trip := loopWeight
	var loop rsd.Loop

	ivSym, ivInit := forInduction(x, a.info)
	if ivSym == nil {
		return loop, trip
	}
	loop.IV = ivSym
	loop.Lo = affine.Analyze(ivInit, a.info, a.env())
	loop.Step = 1

	// Step from the post statement: i = i + c.
	if post, ok := x.Post.(*ast.AssignStmt); ok {
		if id, ok := post.LHS.(*ast.Ident); ok && a.info.Uses[id] == ivSym {
			form := affine.Analyze(post.RHS, a.info, &ivOnly{base: a.env(), iv: ivSym})
			if !form.Residue && form.IVCoef(ivSym) == 1 && form.Pid == 0 && len(form.IV) == 1 {
				loop.Step = form.Const
			} else {
				loop.Step = 0
			}
		}
	}

	// Bound from the condition: iv < U or iv <= U.
	if cond, ok := x.Cond.(*ast.BinaryExpr); ok && loop.Step > 0 {
		if id, ok := cond.X.(*ast.Ident); ok && a.info.Uses[id] == ivSym {
			hi := affine.Analyze(cond.Y, a.info, a.env())
			switch cond.Op {
			case token.LT:
				loop.Hi = hi
				loop.Bounded = hi.PidOnly() && loop.Lo.PidOnly()
			case token.LE:
				loop.Hi = hi.Add(affine.Constant(1))
				loop.Bounded = hi.PidOnly() && loop.Lo.PidOnly()
			}
		}
	}
	if loop.Step <= 0 {
		loop.Step = 1
		loop.Bounded = false
	}

	if loop.Bounded {
		// Known trip count: evaluate the span for a middle process.
		span := loop.Hi.Sub(loop.Lo)
		if span.PidOnly() {
			p := int64(a.cfg.Nprocs / 2)
			if v, ok := span.EvalPid(p); ok && v >= 0 {
				t := float64((v + loop.Step - 1) / loop.Step)
				if t < 1 {
					t = 1
				}
				trip = t
			}
		}
	}
	return loop, trip
}

// env layers the current loop stack over the PDV environment.
func (a *analyzer) env() affine.Env {
	return &loopEnv{pdvs: a.pdvs, loops: a.loops}
}

type loopEnv struct {
	pdvs  *pdv.Result
	loops []rsd.Loop
}

func (e *loopEnv) PDVValue(s *types.Symbol) (affine.Expr, bool) { return e.pdvs.PDVValue(s) }
func (e *loopEnv) Nprocs() int64                                { return e.pdvs.Nprocs() }
func (e *loopEnv) IsInduction(s *types.Symbol) bool {
	for _, l := range e.loops {
		if l.IV == s {
			return true
		}
	}
	return false
}

// ivOnly treats a single symbol as an induction variable (for step
// extraction).
type ivOnly struct {
	base affine.Env
	iv   *types.Symbol
}

func (e *ivOnly) PDVValue(s *types.Symbol) (affine.Expr, bool) { return e.base.PDVValue(s) }
func (e *ivOnly) Nprocs() int64                                { return e.base.Nprocs() }
func (e *ivOnly) IsInduction(s *types.Symbol) bool             { return s == e.iv }

func forInduction(f *ast.ForStmt, info *types.Info) (*types.Symbol, ast.Expr) {
	switch init := f.Init.(type) {
	case *ast.AssignStmt:
		if id, ok := init.LHS.(*ast.Ident); ok {
			return info.Uses[id], init.RHS
		}
	case *ast.DeclStmt:
		if init.Init != nil {
			return info.LocalDecls[init.Decl], init.Init
		}
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// Access extraction

// read walks an expression emitting read accesses for every shared
// object it touches.
func (a *analyzer) read(e ast.Expr) {
	if e == nil {
		return
	}
	a.access(e, false)
}

// access emits the access for the outermost designator of e (write
// when write is true) and read accesses for everything underneath.
func (a *analyzer) access(e ast.Expr, write bool) {
	switch x := e.(type) {
	case *ast.Ident:
		sym := a.info.Uses[x]
		if sym != nil && sym.IsShared() && sym.Type.IsScalar() {
			a.emit(GlobalObject(sym), nil, write, ProvUnknown, x.P)
		}
	case *ast.IndexExpr:
		a.indexAccess(x, write)
	case *ast.FieldExpr:
		f := a.info.FieldUses[x]
		if f != nil {
			p := a.prov.ExprProv(x.X)
			a.emit(FieldObject(f), nil, write, p, x.P)
		}
		a.read(x.X) // the base designator's own loads
	case *ast.DerefExpr:
		a.derefAccess(x, write)
	case *ast.BinaryExpr:
		a.read(x.X)
		a.read(x.Y)
	case *ast.UnaryExpr:
		a.read(x.X)
	case *ast.CallExpr:
		if a.collecting {
			a.siteWeight[x] += a.weight
		}
		for _, arg := range x.Args {
			a.read(arg)
		}
	case *ast.AllocExpr:
		if x.Count != nil {
			a.read(x.Count)
		}
	}
}

// indexAccess resolves an index chain a[i][j]... to its base and emits
// the access with a full descriptor.
func (a *analyzer) indexAccess(x *ast.IndexExpr, write bool) {
	// Peel the chain: innermost IndexExpr is the outermost dimension.
	var indices []ast.Expr
	base := ast.Expr(x)
	for {
		ix, ok := base.(*ast.IndexExpr)
		if !ok {
			break
		}
		indices = append([]ast.Expr{ix.Index}, indices...)
		base = ix.X
	}
	// Index expressions are themselves reads.
	for _, idx := range indices {
		a.read(idx)
	}

	atoms := make(rsd.RSD, len(indices))
	for i, idx := range indices {
		form := affine.Analyze(idx, a.info, a.env())
		atoms[i] = rsd.FromSubscript(form, a.loops)
	}

	switch b := base.(type) {
	case *ast.Ident:
		sym := a.info.Uses[b]
		if sym == nil {
			return
		}
		switch {
		case sym.IsShared() && sym.Type.Kind == types.Array:
			a.emit(GlobalObject(sym), atoms, write, ProvUnknown, x.P)
		case sym.Type != nil && sym.Type.Kind == types.Pointer:
			if sym.IsShared() {
				// Loading the pointer itself reads the global.
				a.emit(GlobalObject(sym), nil, false, ProvUnknown, b.P)
				a.emit(HeapViaObject(sym), atoms, write, ProvShared, x.P)
			} else {
				p := a.prov.SymProv(sym)
				a.emit(HeapTypeObject(sym.Type.Elem), atoms, write, p, x.P)
			}
		}
	case *ast.FieldExpr:
		// Indexing an array field: attribute to the field object.
		f := a.info.FieldUses[b]
		if f != nil {
			p := a.prov.ExprProv(b.X)
			a.emit(FieldObject(f), atoms, write, p, x.P)
		}
		a.read(b.X)
	default:
		// Other bases (calls returning pointers): attribute by type.
		t := a.info.TypeOf(base)
		if t != nil && t.Kind == types.Pointer {
			a.emit(HeapTypeObject(t.Elem), atoms, write, a.prov.ExprProv(base), x.P)
		}
		a.read(base)
	}
}

// derefAccess handles *p.
func (a *analyzer) derefAccess(x *ast.DerefExpr, write bool) {
	point := rsd.RSD{rsd.Point(affine.Constant(0))}
	switch b := x.X.(type) {
	case *ast.Ident:
		sym := a.info.Uses[b]
		if sym == nil || sym.Type == nil || sym.Type.Kind != types.Pointer {
			return
		}
		if sym.IsShared() {
			a.emit(GlobalObject(sym), nil, false, ProvUnknown, b.P)
			a.emit(HeapViaObject(sym), point, write, ProvShared, x.P)
		} else {
			a.emit(HeapTypeObject(sym.Type.Elem), point, write, a.prov.SymProv(sym), x.P)
		}
	default:
		a.read(x.X)
		t := a.info.TypeOf(x.X)
		if t != nil && t.Kind == types.Pointer {
			a.emit(HeapTypeObject(t.Elem), point, write, a.prov.ExprProv(x.X), x.P)
		}
	}
}

// emit records one access into the summary (suppressed during the
// call-site-weight collection pass).
func (a *analyzer) emit(obj Object, r rsd.RSD, write bool, prov Prov, pos token.Pos) {
	if a.collecting {
		return
	}
	key := obj.Key()
	os := a.sum.Objects[key]
	if os == nil {
		os = &ObjectSummary{Obj: obj, PhaseWeight: map[int]float64{}}
		a.sum.Objects[key] = os
	}
	acc := &Access{
		Obj: obj, R: r, Write: write,
		Procs: a.curProcs, Phases: a.curPhases,
		Weight: a.weight, Prov: prov, Pos: pos,
	}
	os.Accesses = append(os.Accesses, acc)
	if write {
		os.WriteW += acc.Weight
		os.WriteProcs = os.WriteProcs.Union(acc.Procs)
		os.Writes = rsd.AddCounted(os.Writes, r, acc.Weight, a.cfg.RSDLimit, &a.sum.RSD)
		os.WriteProv = os.WriteProv.join(prov)
	} else {
		os.ReadW += acc.Weight
		os.ReadProcs = os.ReadProcs.Union(acc.Procs)
		os.Reads = rsd.AddCounted(os.Reads, r, acc.Weight, a.cfg.RSDLimit, &a.sum.RSD)
		os.ReadProv = os.ReadProv.join(prov)
	}
	for _, p := range acc.Phases.Phases() {
		os.PhaseWeight[p] += acc.Weight
	}
}
