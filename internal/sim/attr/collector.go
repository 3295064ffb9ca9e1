// Collector: the cache.Attributor implementation that folds miss
// provenance into per-object tallies, and the report it renders.
package attr

import (
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/sim/cache"
)

// maxEdges bounds the raw writer→victim edge table so adversarial
// traces cannot grow it without limit; the overflow is counted and
// reported instead of silently dropped.
const maxEdges = 1 << 14

type edgeKey struct {
	writerID  int
	writerOff int64
	victimID  int
	victimOff int64
	fs        bool
}

type tally struct {
	counts    [5]int64 // indexed by cache.MissKind
	invCaused int64
	fsByOff   map[int64]int64
	tsByOff   map[int64]int64
	heat      []int64 // false-sharing misses per word offset in block
}

// Collector aggregates attribution events for one simulator. It is
// not safe for concurrent use: install one collector per Sim and run
// the simulation serially (the diagnostic paths do).
type Collector struct {
	m         *Map
	blockSize int64
	objs      map[int]*tally
	edges     map[edgeKey]int64
	dropped   int64
	totals    [5]int64
	invals    int64
}

// NewCollector builds a collector over the map for one block size.
func NewCollector(m *Map, blockSize int64) *Collector {
	return &Collector{
		m:         m,
		blockSize: blockSize,
		objs:      map[int]*tally{},
		edges:     map[edgeKey]int64{},
	}
}

func (c *Collector) obj(id int) *tally {
	t := c.objs[id]
	if t == nil {
		t = &tally{fsByOff: map[int64]int64{}, tsByOff: map[int64]int64{}}
		if c.blockSize >= cache.WordSize {
			t.heat = make([]int64, c.blockSize/cache.WordSize)
		}
		c.objs[id] = t
	}
	return t
}

// OnMiss implements cache.Attributor.
func (c *Collector) OnMiss(proc int, addr, size int64, write bool, kind cache.MissKind, writer int, writerAddr int64) {
	loc := c.m.Resolve(addr)
	t := c.obj(loc.ID)
	t.counts[kind]++
	c.totals[kind]++
	if kind != cache.TrueSharing && kind != cache.FalseSharing {
		return
	}
	fs := kind == cache.FalseSharing
	if fs {
		t.fsByOff[loc.Offset]++
		if len(t.heat) > 0 {
			t.heat[(addr%c.blockSize)/cache.WordSize]++
		}
	} else {
		t.tsByOff[loc.Offset]++
	}
	if writer < 0 {
		return
	}
	wloc := c.m.Resolve(writerAddr)
	k := edgeKey{wloc.ID, wloc.Offset, loc.ID, loc.Offset, fs}
	if _, ok := c.edges[k]; !ok && len(c.edges) >= maxEdges {
		c.dropped++
		return
	}
	c.edges[k]++
}

// OnInvalidate implements cache.Attributor.
func (c *Collector) OnInvalidate(writer int, addr, size int64, victim int) {
	loc := c.m.Resolve(addr)
	c.obj(loc.ID).invCaused++
	c.invals++
}

// FieldStat is one field's sharing-miss tally within an object.
type FieldStat struct {
	Field      string `json:"field"`
	TrueShare  int64  `json:"true_share,omitempty"`
	FalseShare int64  `json:"false_share,omitempty"`
}

// Edge is one aggregated writer→victim sharing relationship.
type Edge struct {
	Writer string `json:"writer"` // "object.field" of the causing write
	Victim string `json:"victim"` // "object.field" of the missing access
	Kind   string `json:"kind"`   // "false-sharing" or "true-sharing"
	Count  int64  `json:"count"`
}

// ObjectStats is one object's attribution summary.
type ObjectStats struct {
	Object     string      `json:"object"`
	Kind       string      `json:"kind"`
	Struct     string      `json:"struct,omitempty"`
	Cold       int64       `json:"cold,omitempty"`
	Replace    int64       `json:"replace,omitempty"`
	TrueShare  int64       `json:"true_share,omitempty"`
	FalseShare int64       `json:"false_share,omitempty"`
	InvCaused  int64       `json:"inval_caused,omitempty"`
	Fields     []FieldStat `json:"fields,omitempty"`
	Heat       []int64     `json:"heat,omitempty"`
}

// Misses returns the object's total miss count.
func (o *ObjectStats) Misses() int64 { return o.Cold + o.Replace + o.TrueShare + o.FalseShare }

// Report is the full attribution summary of one simulation.
type Report struct {
	Procs         int           `json:"procs"`
	Block         int64         `json:"block"`
	Cold          int64         `json:"cold"`
	Replace       int64         `json:"replace"`
	TrueShare     int64         `json:"true_share"`
	FalseShare    int64         `json:"false_share"`
	Invalidations int64         `json:"invalidations"`
	Objects       []ObjectStats `json:"objects"`
	Edges         []Edge        `json:"edges,omitempty"`
	EdgesDropped  int64         `json:"edges_dropped,omitempty"`
}

// Report snapshots the collected tallies. Call after the simulation
// (and after Map.ResolveOwners, so heap spans carry their owners'
// names); the collector may keep accumulating afterwards.
func (c *Collector) Report(procs int) *Report {
	r := &Report{
		Procs:         procs,
		Block:         c.blockSize,
		Cold:          c.totals[cache.Cold],
		Replace:       c.totals[cache.Replacement],
		TrueShare:     c.totals[cache.TrueSharing],
		FalseShare:    c.totals[cache.FalseSharing],
		Invalidations: c.invals,
		EdgesDropped:  c.dropped,
	}
	// Entries sharing a name are one logical object — e.g. the many
	// same-struct heap spans of an interleaved build phase — so merge
	// tallies by name before building the rows.
	byName := map[string]*tally{}
	repID := map[string]int{}
	for id, t := range c.objs {
		name := c.m.Object(id)
		mt := byName[name]
		if mt == nil {
			mt = &tally{fsByOff: map[int64]int64{}, tsByOff: map[int64]int64{}}
			if len(t.heat) > 0 {
				mt.heat = make([]int64, len(t.heat))
			}
			byName[name] = mt
			repID[name] = id
		}
		for k, n := range t.counts {
			mt.counts[k] += n
		}
		mt.invCaused += t.invCaused
		for off, n := range t.fsByOff {
			mt.fsByOff[off] += n
		}
		for off, n := range t.tsByOff {
			mt.tsByOff[off] += n
		}
		for i, h := range t.heat {
			mt.heat[i] += h
		}
	}
	for name, t := range byName {
		id := repID[name]
		o := ObjectStats{
			Object:     name,
			Kind:       c.m.ObjectKind(id),
			Struct:     c.m.StructOf(id),
			Cold:       t.counts[cache.Cold],
			Replace:    t.counts[cache.Replacement],
			TrueShare:  t.counts[cache.TrueSharing],
			FalseShare: t.counts[cache.FalseSharing],
			InvCaused:  t.invCaused,
			Fields:     c.fieldStats(id, t),
		}
		for _, h := range t.heat {
			if h > 0 {
				o.Heat = t.heat
				break
			}
		}
		r.Objects = append(r.Objects, o)
	}
	sort.Slice(r.Objects, func(i, j int) bool {
		a, b := &r.Objects[i], &r.Objects[j]
		if a.FalseShare != b.FalseShare {
			return a.FalseShare > b.FalseShare
		}
		if a.TrueShare != b.TrueShare {
			return a.TrueShare > b.TrueShare
		}
		if am, bm := a.Misses(), b.Misses(); am != bm {
			return am > bm
		}
		return a.Object < b.Object
	})
	r.Edges = c.edgeStats()
	return r
}

// fieldStats folds the per-offset tallies into named fields.
func (c *Collector) fieldStats(id int, t *tally) []FieldStat {
	agg := map[string]*FieldStat{}
	fold := func(m map[int64]int64, fs bool) {
		for off, n := range m {
			name := c.m.FieldName(id, off)
			if name == "" {
				continue
			}
			st := agg[name]
			if st == nil {
				st = &FieldStat{Field: name}
				agg[name] = st
			}
			if fs {
				st.FalseShare += n
			} else {
				st.TrueShare += n
			}
		}
	}
	fold(t.fsByOff, true)
	fold(t.tsByOff, false)
	out := make([]FieldStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FalseShare != out[j].FalseShare {
			return out[i].FalseShare > out[j].FalseShare
		}
		if out[i].TrueShare != out[j].TrueShare {
			return out[i].TrueShare > out[j].TrueShare
		}
		return out[i].Field < out[j].Field
	})
	return out
}

// edgeStats aggregates raw offset-level edges to object.field pairs.
func (c *Collector) edgeStats() []Edge {
	agg := map[[3]string]int64{}
	for k, n := range c.edges {
		kind := "true-sharing"
		if k.fs {
			kind = "false-sharing"
		}
		agg[[3]string{c.label(k.writerID, k.writerOff), c.label(k.victimID, k.victimOff), kind}] += n
	}
	out := make([]Edge, 0, len(agg))
	for k, n := range agg {
		out = append(out, Edge{Writer: k[0], Victim: k[1], Kind: k[2], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Writer != out[j].Writer {
			return out[i].Writer < out[j].Writer
		}
		return out[i].Victim < out[j].Victim
	})
	if len(out) > 64 {
		out = out[:64]
	}
	return out
}

func (c *Collector) label(id int, off int64) string {
	obj := c.m.Object(id)
	if f := c.m.FieldName(id, off); f != "" {
		return obj + "." + f
	}
	return obj
}

// Render formats the report as the "top false-sharing objects" table
// with per-block word heatmaps and writer→victim edges.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "attribution: procs=%d block=%d  cold=%d replace=%d true=%d false=%d inval=%d\n",
		r.Procs, r.Block, r.Cold, r.Replace, r.TrueShare, r.FalseShare, r.Invalidations)
	if len(r.Objects) == 0 {
		sb.WriteString("  (no misses attributed)\n")
		return sb.String()
	}
	sb.WriteString("top false-sharing objects:\n")
	fmt.Fprintf(&sb, "  %4s  %-24s %-7s %9s %9s %9s %9s  %s\n",
		"rank", "object", "kind", "false", "true", "cold+rep", "inval'd", "hot fields")
	shown := 0
	for _, o := range r.Objects {
		if shown >= 12 {
			fmt.Fprintf(&sb, "  … %d more objects\n", len(r.Objects)-shown)
			break
		}
		shown++
		var hot []string
		for i, f := range o.Fields {
			if i >= 3 {
				break
			}
			hot = append(hot, fmt.Sprintf("%s(fs=%d,ts=%d)", f.Field, f.FalseShare, f.TrueShare))
		}
		fmt.Fprintf(&sb, "  %4d  %-24s %-7s %9d %9d %9d %9d  %s\n",
			shown, o.Object, o.Kind, o.FalseShare, o.TrueShare,
			o.Cold+o.Replace, o.InvCaused, strings.Join(hot, " "))
	}
	if heats := r.heatLines(); len(heats) > 0 {
		sb.WriteString("false-sharing heat per word offset in block (' '<.<:<#):\n")
		for _, h := range heats {
			sb.WriteString(h)
		}
	}
	if len(r.Edges) > 0 {
		sb.WriteString("writer -> victim edges:\n")
		for i, e := range r.Edges {
			if i >= 12 {
				fmt.Fprintf(&sb, "  … %d more edges\n", len(r.Edges)-i)
				break
			}
			fmt.Fprintf(&sb, "  %-28s -> %-28s %-13s %d\n", e.Writer, e.Victim, e.Kind, e.Count)
		}
	}
	if r.EdgesDropped > 0 {
		fmt.Fprintf(&sb, "  (edge table full: %d events uncounted)\n", r.EdgesDropped)
	}
	return sb.String()
}

func (r *Report) heatLines() []string {
	var out []string
	for _, o := range r.Objects {
		if len(out) >= 6 {
			break
		}
		if len(o.Heat) == 0 {
			continue
		}
		max := int64(0)
		for _, h := range o.Heat {
			if h > max {
				max = h
			}
		}
		if max == 0 {
			continue
		}
		bar := make([]byte, len(o.Heat))
		for i, h := range o.Heat {
			switch {
			case h == 0:
				bar[i] = ' '
			case h*3 <= max:
				bar[i] = '.'
			case h*3 <= 2*max:
				bar[i] = ':'
			default:
				bar[i] = '#'
			}
		}
		out = append(out, fmt.Sprintf("  %-24s [%s]\n", o.Object, bar))
	}
	return out
}
