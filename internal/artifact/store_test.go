package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"falseshare/internal/faultinject"
)

var ctx = context.Background()

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, schema, key, data string) {
	t.Helper()
	if err := s.Put(ctx, schema, key, json.RawMessage(data)); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if _, ok := s.Get("v1", "alpha"); ok {
		t.Fatal("hit on empty store")
	}
	put(t, s, "v1", "alpha", `{"x":1}`)
	got, ok := s.Get("v1", "alpha")
	if !ok || !bytes.Equal(got, []byte(`{"x":1}`)) {
		t.Fatalf("get = %s, %v; want {\"x\":1}, true", got, ok)
	}
	if _, ok := s.Get("v1", "bravo"); ok {
		t.Error("hit for a key never stored")
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 2 || c.Entries != 1 || c.Bytes <= 0 {
		t.Errorf("counters = %+v", c)
	}
	// Empty keys never enter the store.
	put(t, s, "v1", "", `1`)
	if _, ok := s.Get("v1", ""); ok {
		t.Error("empty-key Get hit")
	}
	// nil store is inert.
	var nilStore *Store
	if _, ok := nilStore.Get("v1", "alpha"); ok {
		t.Error("nil store hit")
	}
	if err := nilStore.Put(ctx, "v1", "alpha", nil); err != nil {
		t.Errorf("nil store Put: %v", err)
	}
	if err := nilStore.Close(); err != nil {
		t.Errorf("nil store Close: %v", err)
	}
}

func TestStoreSchemaGenerationsCoexist(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	put(t, s, "v1", "alpha", `1`)
	put(t, s, "v2", "alpha", `2`)
	if d, ok := s.Get("v1", "alpha"); !ok || string(d) != `1` {
		t.Errorf("v1 entry = %s, %v", d, ok)
	}
	if d, ok := s.Get("v2", "alpha"); !ok || string(d) != `2` {
		t.Errorf("v2 entry = %s, %v", d, ok)
	}
	// Both survive a reopen: a schema bump invalidates by addressing,
	// not by deleting the previous generation.
	r := mustOpen(t, dir, Options{})
	if d, ok := r.Get("v1", "alpha"); !ok || string(d) != `1` {
		t.Errorf("reopened v1 entry = %s, %v", d, ok)
	}
	if c := r.Counters(); c.CorruptDropped != 0 || c.Entries != 2 {
		t.Errorf("reopen counters = %+v", c)
	}
}

// address is the entry hash this build gives (schema, key).
func address(t *testing.T, schema, key string) string {
	t.Helper()
	id, err := buildID()
	if err != nil {
		t.Fatal(err)
	}
	return hashOf(id, schema, key)
}

// withBuild makes the store see the running executable as id, or as
// unreadable when err is set, until the test ends.
func withBuild(t *testing.T, id string, err error) {
	prev := buildID
	buildID = func() (string, error) { return id, err }
	t.Cleanup(func() { buildID = prev })
}

// TestStoreOtherBuildIsMiss: an entry another build wrote is valid on
// disk but never served: it is a miss for this build, survives the
// recovery scan untouched, and is still served to its own build.
func TestStoreOtherBuildIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	prev := buildID
	buildID = func() (string, error) { return "other-build", nil }
	put(t, s, "v1", "alpha", `1`)
	buildID = prev

	if _, ok := s.Get("v1", "alpha"); ok {
		t.Fatal("another build's entry served")
	}
	put(t, s, "v1", "alpha", `2`)
	if d, ok := s.Get("v1", "alpha"); !ok || string(d) != `2` {
		t.Errorf("this build's entry = %s, %v", d, ok)
	}

	r := mustOpen(t, dir, Options{})
	if c := r.Counters(); c.CorruptDropped != 0 || c.Entries != 2 {
		t.Errorf("recovery scan over two builds' entries: %+v", c)
	}
	withBuild(t, "other-build", nil)
	if d, ok := r.Get("v1", "alpha"); !ok || string(d) != `1` {
		t.Errorf("other build's entry after reopen = %s, %v", d, ok)
	}
}

// TestStoreEntryWithoutBuildDropped: an entry in the format before
// entries recorded their build, addressed by hash(schema ‖ key), is
// dropped as corrupt by the recovery scan.
func TestStoreEntryWithoutBuildDropped(t *testing.T) {
	dir := t.TempDir()
	sum := sha256.Sum256([]byte("v1\x00alpha"))
	old := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, old[:2], old+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"v1","key":"alpha","data":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	if c := s.Counters(); c.CorruptDropped != 1 || c.Entries != 0 {
		t.Errorf("counters = %+v, want the old entry dropped", c)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("old entry left on disk")
	}
	if _, ok := s.Get("v1", "alpha"); ok {
		t.Error("old entry served")
	}
}

// TestStoreUnreadableExecutable: without a build identity nothing is
// served or stored — Get misses and Put fails, leaving no file.
func TestStoreUnreadableExecutable(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	put(t, s, "v1", "alpha", `1`)
	withBuild(t, "", errors.New("executable unreadable"))
	if _, ok := s.Get("v1", "alpha"); ok {
		t.Error("Get hit without a build identity")
	}
	if err := s.Put(ctx, "v1", "bravo", json.RawMessage(`2`)); err == nil {
		t.Error("Put succeeded without a build identity")
	}
	if c := s.Counters(); c.Misses != 1 || c.Entries != 1 {
		t.Errorf("counters = %+v", c)
	}
	if files := entryFiles(t, dir); len(files) != 1 {
		t.Errorf("entry files = %v, want alpha's only", files)
	}
}

func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".json") && filepath.Base(p) != indexName {
			files = append(files, p)
		}
		return nil
	})
	return files
}

func TestStoreCorruptReadIsDroppedMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	put(t, s, "v1", "alpha", `1`)
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("entry files = %v", files)
	}
	if err := os.WriteFile(files[0], []byte(`{torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("v1", "alpha"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt entry not dropped from disk")
	}
	c := s.Counters()
	if c.CorruptDropped != 1 || c.Hits != 0 {
		t.Errorf("counters = %+v", c)
	}
	// An entry whose recorded key disagrees with its address
	// (collision, tampering) is also dropped.
	b, _ := json.Marshal(&storedEntry{Schema: "v1", Key: "other", Data: json.RawMessage(`1`)})
	os.MkdirAll(filepath.Dir(files[0]), 0o755)
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("v1", "alpha"); ok {
		t.Error("mismatched entry served as a hit")
	}
	if c := s.Counters(); c.CorruptDropped != 2 {
		t.Errorf("counters after mismatch = %+v", c)
	}
}

// TestStoreRejectCountsCorruptMiss: an entry the caller refuses after
// a hit is dropped from disk, and that read counts as corrupt and as a
// miss, not a hit.
func TestStoreRejectCountsCorruptMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	put(t, s, "v1", "alpha", `1`)
	if _, ok := s.Get("v1", "alpha"); !ok {
		t.Fatal("stored entry missed")
	}
	s.Reject("v1", "alpha")
	if files := entryFiles(t, dir); len(files) != 0 {
		t.Errorf("rejected entry still on disk: %v", files)
	}
	if c := s.Counters(); c.Hits != 0 || c.Misses != 1 || c.CorruptDropped != 1 || c.Entries != 0 {
		t.Errorf("counters = %+v, want no hit, one miss, one corrupt, no entries", c)
	}
	if _, ok := s.Get("v1", "alpha"); ok {
		t.Error("rejected entry served again")
	}
}

func TestStoreRecoveryScanDropsTornEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	put(t, s, "v1", "alpha", `1`)
	put(t, s, "v1", "bravo", `2`)
	// Tear bravo's file and plant an orphan tmp, as a crashed writer
	// would leave them.
	bh := address(t, "v1", "bravo")
	if err := os.WriteFile(s.path(bh), []byte(`{"schema":"v1","key":"bra`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bh[:2], ".tmp-123"), []byte(`junk`), 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	c := r.Counters()
	if c.CorruptDropped != 2 { // torn entry + orphan tmp
		t.Errorf("CorruptDropped = %d, want 2 (%+v)", c.CorruptDropped, c)
	}
	if c.Entries != 1 {
		t.Errorf("Entries = %d, want 1", c.Entries)
	}
	if d, ok := r.Get("v1", "alpha"); !ok || string(d) != `1` {
		t.Errorf("alpha lost in recovery: %s, %v", d, ok)
	}
	if _, ok := r.Get("v1", "bravo"); ok {
		t.Error("torn bravo served after recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, bh[:2], ".tmp-123")); !os.IsNotExist(err) {
		t.Error("orphan tmp not reaped")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	put(t, s, "v1", "alpha", `1`)
	size := s.Counters().Bytes
	s.Close()

	// Budget for two entries of this size (with slack for key-length
	// differences); the third put evicts the least recently used.
	s = mustOpen(t, dir, Options{MaxBytes: 2*size + 8})
	put(t, s, "v1", "bravo", `2`)
	if _, ok := s.Get("v1", "alpha"); !ok { // touch alpha: bravo is now LRU
		t.Fatal("alpha missing before eviction")
	}
	put(t, s, "v1", "charly", `3`)
	c := s.Counters()
	if c.Evictions != 1 || c.Entries != 2 {
		t.Errorf("counters = %+v", c)
	}
	if _, ok := s.Get("v1", "bravo"); ok {
		t.Error("LRU entry bravo survived eviction")
	}
	if _, ok := s.Get("v1", "alpha"); !ok {
		t.Error("recently-used alpha evicted")
	}
	if _, ok := s.Get("v1", "charly"); !ok {
		t.Error("just-written charly evicted")
	}
}

func TestStoreRecencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	put(t, s, "v1", "alpha", `1`)
	size := s.Counters().Bytes
	put(t, s, "v1", "bravo", `2`)
	if _, ok := s.Get("v1", "alpha"); !ok { // bravo is LRU at flush time
		t.Fatal("alpha missing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, indexName)); err != nil {
		t.Fatalf("index not flushed: %v", err)
	}
	// Reopen under a one-entry budget: the index hint must direct
	// eviction at bravo, not at the more recently used alpha.
	r := mustOpen(t, dir, Options{MaxBytes: size})
	if _, ok := r.Get("v1", "alpha"); !ok {
		t.Error("recently-used alpha evicted at reopen")
	}
	if _, ok := r.Get("v1", "bravo"); ok {
		t.Error("LRU bravo survived reopen under budget")
	}
	if c := r.Counters(); c.Evictions != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestStoreCorruptFaultWritesDamageReadDropsIt(t *testing.T) {
	set, err := faultinject.Parse("test.store=put/alpha:corrupt:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	s := mustOpen(t, t.TempDir(), Options{FaultPoint: "test.store"})
	put(t, s, "v1", "alpha", `1`) // corrupt injection mangles the payload, write proceeds
	if _, ok := s.Get("v1", "alpha"); ok {
		t.Fatal("deliberately corrupted entry served as a hit")
	}
	if c := s.Counters(); c.CorruptDropped != 1 {
		t.Errorf("counters = %+v", c)
	}
	put(t, s, "v1", "alpha", `1`) // count=1: the rewrite is clean
	if d, ok := s.Get("v1", "alpha"); !ok || string(d) != `1` {
		t.Errorf("clean rewrite = %s, %v", d, ok)
	}
}

func TestStoreErrorFaultFailsPutCleanly(t *testing.T) {
	set, err := faultinject.Parse("test.store=rename/alpha:error:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{FaultPoint: "test.store"})
	if err := s.Put(ctx, "v1", "alpha", json.RawMessage(`1`)); err == nil {
		t.Fatal("injected rename fault did not surface")
	}
	// The failed put left no debris: no tmp files, no entry.
	var tmps []string
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(filepath.Base(p), ".tmp-") {
			tmps = append(tmps, p)
		}
		return nil
	})
	if len(tmps) != 0 {
		t.Errorf("tmp debris after failed put: %v", tmps)
	}
	if _, ok := s.Get("v1", "alpha"); ok {
		t.Error("failed put left a readable entry")
	}
}

// TestStoreCrashMidWriteLosesOnlyThatEntry is the kill -9 contract:
// a process dying between the tmp write and the rename loses exactly
// the entry it was writing. The child (this test binary re-executed)
// writes alpha cleanly, then dies on an injected process exit inside
// bravo's commit window; the parent reopens and checks the damage.
func TestStoreCrashMidWriteLosesOnlyThatEntry(t *testing.T) {
	dir := os.Getenv("ARTIFACT_CRASH_DIR")
	if dir != "" {
		// Child mode.
		set, err := faultinject.Parse("test.store=rename/bravo:exit")
		if err != nil {
			os.Exit(9)
		}
		faultinject.Enable(set)
		s, err := Open(dir, Options{FaultPoint: "test.store"})
		if err != nil {
			os.Exit(9)
		}
		if err := s.Put(ctx, "v1", "alpha", json.RawMessage(`1`)); err != nil {
			os.Exit(9)
		}
		s.Put(ctx, "v1", "bravo", json.RawMessage(`2`)) // exits the process mid-commit
		os.Exit(9)                                      // unreachable if the fault fired
	}

	dir = t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestStoreCrashMidWriteLosesOnlyThatEntry$", "-test.v")
	cmd.Env = append(os.Environ(), "ARTIFACT_CRASH_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived the injected crash:\n%s", out)
	}
	var ee *exec.ExitError
	if !(errors.As(err, &ee) && ee.ExitCode() == 3) { // faultinject's default exit code
		t.Fatalf("child exit: %v (want exit code 3)\n%s", err, out)
	}

	s := mustOpen(t, dir, Options{})
	if d, ok := s.Get("v1", "alpha"); !ok || string(d) != `1` {
		t.Errorf("alpha lost to bravo's crash: %s, %v", d, ok)
	}
	if _, ok := s.Get("v1", "bravo"); ok {
		t.Error("bravo readable despite crashing before commit")
	}
	c := s.Counters()
	if c.CorruptDropped != 1 { // the reaped tmp file
		t.Errorf("CorruptDropped = %d, want 1 (%+v)", c.CorruptDropped, c)
	}
	var tmps []string
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(filepath.Base(p), ".tmp-") {
			tmps = append(tmps, p)
		}
		return nil
	})
	if len(tmps) != 0 {
		t.Errorf("orphan tmp files after recovery: %v", tmps)
	}
}
