package rsd

import "falseshare/internal/analysis/affine"

// DefaultLimit is the maximum number of descriptors kept per data
// structure before merging, matching the paper's observation that no
// benchmark array needed more than 10.
const DefaultLimit = 10

// Weighted is a descriptor with its static-profiling weight.
type Weighted struct {
	R      RSD
	Weight float64
	// Lossy marks descriptors produced by information-losing merges.
	Lossy bool
}

// Counters tallies descriptor-list maintenance for observability:
// how much the per-object cap (the paper's "small preset limit")
// actually bites on a given program.
type Counters struct {
	// Added counts descriptors inserted as new list entries.
	Added int64
	// Deduped counts insertions folded into an identical descriptor
	// (weight merge, no information loss).
	Deduped int64
	// Merged counts lossy cheapest-pair merges.
	Merged int64
	// Capped counts insertions that pushed a list over its limit and
	// forced merging.
	Capped int64
}

// Add inserts a descriptor into the list, deduplicating identical
// descriptors (no information loss) and enforcing the descriptor
// limit. When the limit is exceeded, the two cheapest descriptors are
// merged, losing information only as a last resort — mirroring the
// paper's policy of merging "when very little or no information will
// be lost, or when the number of descriptors exceeds some small preset
// limit".
func Add(list []Weighted, r RSD, w float64, limit int) []Weighted {
	return AddCounted(list, r, w, limit, nil)
}

// AddCounted is Add with maintenance counters recorded into c (which
// may be nil).
func AddCounted(list []Weighted, r RSD, w float64, limit int, c *Counters) []Weighted {
	if limit <= 0 {
		limit = DefaultLimit
	}
	for i := range list {
		if !list[i].Lossy && list[i].R.equal(r) {
			list[i].Weight += w
			if c != nil {
				c.Deduped++
			}
			return list
		}
	}
	list = append(list, Weighted{R: r, Weight: w})
	if c != nil {
		c.Added++
		if len(list) > limit {
			c.Capped++
		}
	}
	for len(list) > limit {
		list = mergeCheapest(list)
		if c != nil {
			c.Merged++
		}
	}
	return list
}

// mergeCheapest merges the two lowest-weight descriptors into one
// widened descriptor.
func mergeCheapest(list []Weighted) []Weighted {
	if len(list) < 2 {
		return list
	}
	i1, i2 := 0, 1
	if list[i2].Weight < list[i1].Weight {
		i1, i2 = i2, i1
	}
	for k := 2; k < len(list); k++ {
		if list[k].Weight < list[i1].Weight {
			i2 = i1
			i1 = k
		} else if list[k].Weight < list[i2].Weight {
			i2 = k
		}
	}
	merged := Weighted{
		R:      mergeRSD(list[i1].R, list[i2].R),
		Weight: list[i1].Weight + list[i2].Weight,
		Lossy:  true,
	}
	var out []Weighted
	for k := range list {
		if k != i1 && k != i2 {
			out = append(out, list[k])
		}
	}
	return append(out, merged)
}

// mergeRSD widens two descriptors dimension by dimension.
func mergeRSD(a, b RSD) RSD {
	if len(a) != len(b) {
		// Structurally incompatible: collapse to a fully unknown
		// descriptor of the larger rank.
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		out := make(RSD, n)
		for i := range out {
			out[i] = Atom{}
		}
		return out
	}
	out := make(RSD, len(a))
	for i := range a {
		out[i] = mergeAtom(a[i], b[i])
	}
	return out
}

// mergeAtom merges two atoms of one dimension. Identical atoms merge
// exactly; two points whose bases share the pid coefficient merge into
// an exact two-point range; anything else widens to unknown.
func mergeAtom(a, b Atom) Atom {
	if a.equal(b) {
		return a
	}
	if a.IsPoint() && b.IsPoint() && a.Base.Pid == b.Base.Pid {
		d := b.Base.Const - a.Base.Const
		if d < 0 {
			d = -d
			a, b = b, a
		}
		if d == 0 {
			return a
		}
		// {base, base+d}: an exact strided pair.
		lo := a.Base
		return Atom{
			Known: true,
			Base:  lo,
			Terms: []IVTerm{{
				Coef:    d,
				Lo:      pointBound(0),
				Hi:      pointBound(2),
				Step:    1,
				Bounded: true,
			}},
		}
	}
	return Atom{} // unknown
}

func pointBound(v int64) affine.Expr { return affine.Constant(v) }
