package experiments

import (
	"context"
	"testing"

	"falseshare/internal/sim/cache"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// TestPageGranularity exercises the related-work setting of Bolosky et
// al. and Granston (paper §6): false sharing of virtual-memory pages
// rather than cache blocks. The same simulator handles it — a page is
// just a 4096-byte coherence unit — and the same transformations,
// asked to pad to the page size, eliminate most page-level false
// sharing too.
func TestPageGranularity(t *testing.T) {
	const pageSize = 4096
	b := workload.Get("pverify")
	nprocs := 8
	ccfg := cache.DefaultConfig(nprocs, pageSize)

	nProg, err := ProgramCtx(context.Background(), b, VersionN, nprocs, 1, pageSize, transform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nStats, err := MeasureConfig(context.Background(), nProg, ccfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nStats.FalseShare == 0 {
		t.Fatalf("page-level false sharing expected in the unoptimized program")
	}

	cProg, err := ProgramCtx(context.Background(), b, VersionC, nprocs, 1, pageSize, transform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cStats, err := MeasureConfig(context.Background(), cProg, ccfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	red := 1 - float64(cStats.FalseShare)/float64(nStats.FalseShare)
	t.Logf("page-level FS: %d -> %d (%.1f%% reduction)",
		nStats.FalseShare, cStats.FalseShare, 100*red)
	if red < 0.5 {
		t.Errorf("page-padding transformations should remove most page FS: %.1f%%", 100*red)
	}
}
