package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
	"falseshare/internal/sim/attr"
)

// fuzzKey is the cell FuzzStoredCell stores and replays.
const fuzzKey = "fig3/maxflow/N/b128"

// fuzzCell is what fuzzJob computes.
var fuzzCell = Fig3Cell{Program: "maxflow", Version: VersionN, Block: 128, Procs: 12, Refs: 1000, FSMisses: 10, OtherMisses: 5, FSRate: 1, OtherRate: 0.5}

// fuzzJob stands in for fuzzKey's job, so that a miss costs no VM
// run: it records a span and an attribution event, counts its runs
// and returns fuzzCell.
func fuzzJob(runs *int) pool.Job[Fig3Cell] {
	return pool.Job[Fig3Cell]{Key: fuzzKey, Run: func(ctx context.Context) (Fig3Cell, error) {
		*runs++
		sp := obs.BeginCtx(ctx, "measure")
		sp.Set("refs", fuzzCell.Refs)
		sp.End()
		recordDiag(ctx, DiagCell{Key: fuzzKey, Program: "maxflow", Version: VersionN, Block: 128, Procs: 12,
			Report: &attr.Report{Procs: 12, Block: 128, FalseShare: fuzzCell.FSMisses}})
		return fuzzCell, nil
	}}
}

// entryLayout returns where a store keeps the entry at addr, relative
// to the store's directory, and the bytes of that entry before its
// data, which one '}' after the data closes.
func entryLayout(tb testing.TB, addr string) (rel string, head []byte) {
	tb.Helper()
	dir := tb.TempDir()
	st := openStore(tb, dir)
	if err := st.Put(context.Background(), cellSchema, addr, json.RawMessage(`{}`)); err != nil {
		tb.Fatal(err)
	}
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Dir(p) != dir {
			rel, _ = filepath.Rel(dir, p)
		}
		return nil
	})
	b, err := os.ReadFile(filepath.Join(dir, rel))
	if err != nil {
		tb.Fatal(err)
	}
	head, ok := bytes.CutSuffix(b, []byte(`{}}`))
	if !ok {
		tb.Fatalf("entry does not end in its data: %s", b)
	}
	return rel, head
}

// spansJSON renders a span list, empty or not, as a JSON array.
func spansJSON(t *testing.T, spans []*obs.Span) []byte {
	return mustMarshal(t, append([]*obs.Span{}, spans...))
}

// FuzzStoredCell drives arbitrary bytes, stored as one cell's payload,
// through the replay a run makes of a stored cell: the store reads the
// entry, loadCell decodes the payload, the pool grafts its spans into
// the job's recorder, the run's recorder snapshots and marshals its
// tree, the events are appended to the run's log and the diagnosis is
// rendered. The replay never panics. A payload the store or loadCell
// refuses is a miss: the cell recomputes and overwrites the entry. A
// payload loadCell serves round-trips: stored again, reopened and
// loaded, it gives the result, spans and events the replay produced.
func FuzzStoredCell(f *testing.F) {
	cfg := smallFig3()
	cfg.Diag = true
	cfg.Store = openStore(f, f.TempDir())
	if _, err := Figure3(cfg); err != nil {
		f.Fatal(err)
	}
	entry, ok := cfg.Store.Get(cellSchema, cellAddress(cfg, fuzzKey, nil))
	if !ok {
		f.Fatalf("no stored cell %s", fuzzKey)
	}
	f.Add([]byte(entry))
	for _, u := range unreplayable {
		f.Add(damaged(f, entry, u.edit))
	}
	f.Add([]byte(entry[:len(entry)/2]))

	// Every input is planted in one directory, at the path the store
	// keeps addr at, so that an exec costs few file operations.
	dir, addr := f.TempDir(), cellAddress(Config{}, fuzzKey, nil)
	rel, head := entryLayout(f, addr)
	path := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The payload goes verbatim into the entry's data, past the
		// checks Put makes, so torn bytes reach the store's own
		// decoding too.
		if err := os.WriteFile(path, append(append(append([]byte(nil), head...), payload...), '}'), 0o644); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		rec := obs.NewRecorder()
		cfg := Config{Workers: 1, Store: openStore(t, dir), Events: &CellEvents{}, Ctx: obs.WithRecorder(ctx, rec)}

		var runs int
		got, err := runJobs(cfg, "fig3", nil, []pool.Job[Fig3Cell]{fuzzJob(&runs)})
		if err != nil {
			t.Fatal(err)
		}
		mustMarshal(t, rec.Spans())
		RenderDiag(cfg.Events.Diag)
		replayed := rec.Find("job:" + fuzzKey)
		if replayed == nil {
			t.Fatal("no job span")
		}

		if runs == 1 {
			if got[0] != fuzzCell {
				t.Fatalf("recomputed cell = %+v, want %+v", got[0], fuzzCell)
			}
			if v, _, ok := loadCell[Fig3Cell](ctx, cfg.Store, fuzzKey, addr); !ok || v != fuzzCell {
				t.Fatalf("the recomputed cell did not overwrite the entry: %+v, %v", v, ok)
			}
			return
		}
		if runs != 0 {
			t.Fatalf("the job ran %d times", runs)
		}
		raw, ok := cfg.Store.Get(cellSchema, addr)
		if !ok {
			t.Fatal("a served entry is gone")
		}
		if err := cfg.Store.Put(ctx, cellSchema, addr, raw); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Store.Close(); err != nil {
			t.Fatal(err)
		}
		v, p, ok := loadCell[Fig3Cell](ctx, openStore(t, dir), fuzzKey, addr)
		if !ok {
			t.Fatal("a served payload does not load again")
		}
		if v != got[0] {
			t.Fatalf("result changed on the round trip: %+v, then %+v", got[0], v)
		}
		if a, b := spansJSON(t, replayed.Children), spansJSON(t, p.Spans); !bytes.Equal(a, b) {
			t.Fatalf("spans changed on the round trip:\n%s\n%s", a, b)
		}
		if a, b := mustMarshal(t, cfg.Events), mustMarshal(t, &p.Events); !bytes.Equal(a, b) {
			t.Fatalf("events changed on the round trip:\n%s\n%s", a, b)
		}
	})
}
