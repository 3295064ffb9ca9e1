package rsd

// The structural comparisons, for the external tests.
var (
	Equal     = RSD.equal
	AtomEqual = Atom.equal
)
