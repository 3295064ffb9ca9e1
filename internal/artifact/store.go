// Package artifact is the crash-safe content-addressed artifact
// store behind both the experiment cell store (fsexp -cache: every
// finished cell, keyed by its cell address) and the fsd daemon's
// per-stage response cache. One JSON file per artifact, addressed
// by sha256(build ‖ schema ‖ key): build is the sha256 of the running
// executable, so an entry is served only to the binary that computed
// it and changed code starts cold with nothing to bump by hand (two
// builds of one tree are identical and share entries); the schema
// names the producing stage; the key covers the inputs — source
// hash, configuration, budgets. The build is hashed once per
// process, on the first Get or Put, never in Open; if the executable
// cannot be read, Get misses and Put fails.
//
// Crash safety is the contract:
//
//   - Writes are atomic (tmp file + rename), so a reader never
//     observes a torn entry and a writer killed mid-write loses at
//     most the entry it was writing.
//   - Open runs a recovery scan: orphaned tmp files are reaped and
//     any entry that fails to parse or whose recorded (build, schema,
//     key) disagrees with its address is dropped and counted, never
//     served. Entries of other builds are valid: they stay on disk as
//     misses until LRU eviction takes them.
//   - Reads validate; a corrupt entry found at read time is dropped
//     (counted in CorruptDropped) and reported as a miss — the cost
//     of corruption is one recomputation, never an error.
//   - Eviction is least-recently-used under a byte budget. Recency
//     survives restarts via an index file that is purely a hint:
//     a torn or missing index costs eviction accuracy (file mtimes
//     stand in), never artifacts.
//
// The store is safe for concurrent use within a process. Multiple
// processes may share a directory (atomic renames keep every file
// well-formed); each process then tracks its own recency and byte
// accounting, and entries written by others are adopted on first
// read.
package artifact

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"falseshare/internal/faultinject"
)

// Options configures a Store.
type Options struct {
	// MaxBytes is the LRU eviction budget over entry file sizes;
	// 0 means unlimited.
	MaxBytes int64
	// FaultPoint, when non-empty, names the faultinject site fired
	// during Put — once on entry (detail "put/<key>") and once just
	// before the rename that commits the entry (detail
	// "rename/<key>"), so chaos specs can kill the process with a
	// torn write on disk or corrupt the payload deliberately.
	FaultPoint string
}

// Counters is a snapshot of the store's activity since Open.
type Counters struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	CorruptDropped int64 `json:"corrupt_dropped"`
	Evictions      int64 `json:"evictions"`
	Entries        int64 `json:"entries"`
	Bytes          int64 `json:"bytes"`
}

// Store is a crash-safe content-addressed artifact store rooted at
// one directory.
type Store struct {
	dir string
	opt Options

	mu      sync.Mutex
	entries map[string]*entry // hash → entry
	lru     *list.List        // front = least recently used
	bytes   int64
	hits    int64
	misses  int64
	corrupt int64
	evicted int64
}

type entry struct {
	hash string
	size int64
	elem *list.Element
}

// storedEntry is the on-disk format: self-describing, so the
// recovery scan can validate an entry against its own address
// without knowing which stage or build wrote it.
type storedEntry struct {
	Build  string          `json:"build"`
	Schema string          `json:"schema"`
	Key    string          `json:"key"`
	Data   json.RawMessage `json:"data"`
}

// indexName is the LRU recency hint flushed by Close. It lives at
// the store root, outside the 2-hex-char entry fan-out.
const indexName = "index.json"

type indexFile struct {
	// Order lists entry hashes least-recently-used first.
	Order []string `json:"order"`
}

// hashOf maps (build, schema, key) to the entry's content address.
func hashOf(build, schema, key string) string {
	sum := sha256.Sum256([]byte(build + "\x00" + schema + "\x00" + key))
	return hex.EncodeToString(sum[:])
}

// buildID is the identity of the running executable, hashed on first
// use. Tests swap it.
var buildID = sync.OnceValues(exeHash)

// exeHash returns the sha256 of the running executable, streamed
// through a small buffer. On Linux /proc/self/exe stays the running
// file even if its path has since been replaced.
func exeHash() (string, error) {
	path := "/proc/self/exe"
	if runtime.GOOS != "linux" {
		var err error
		if path, err = os.Executable(); err != nil {
			return "", fmt.Errorf("artifact: build identity: %w", err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("artifact: build identity: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("artifact: build identity: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Open opens (creating as needed) the store rooted at dir and runs
// the recovery scan: orphan tmp files are reaped, torn or corrupt
// entries are dropped and counted, and the LRU order is rebuilt from
// the index hint (falling back to file mtimes).
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// recover scans the directory, validating every entry file. It runs
// before the store is visible to any other goroutine, so it needs no
// locking.
func (s *Store) recover() error {
	type found struct {
		hash  string
		size  int64
		mtime int64
	}
	var scanned []found
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, ".tmp-") {
			// A writer died between CreateTemp and rename: the entry
			// it was writing is lost (that is the crash-safety
			// contract — at most that entry), the debris is reaped.
			os.Remove(path)
			s.corrupt++
			return nil
		}
		if path == filepath.Join(s.dir, indexName) {
			return nil
		}
		hash, size, ok := s.validate(path)
		if !ok {
			os.Remove(path)
			s.corrupt++
			return nil
		}
		info, ierr := d.Info()
		var mt int64
		if ierr == nil {
			mt = info.ModTime().UnixNano()
		}
		scanned = append(scanned, found{hash: hash, size: size, mtime: mt})
		return nil
	})
	if err != nil {
		return fmt.Errorf("artifact: recovery scan %s: %w", s.dir, err)
	}

	// Recency: entries named by the index hint keep its order
	// (least-recent first); the rest — written after the last clean
	// flush — rank by mtime and count as more recent.
	sort.Slice(scanned, func(i, j int) bool { return scanned[i].mtime < scanned[j].mtime })
	byHash := make(map[string]found, len(scanned))
	for _, f := range scanned {
		byHash[f.hash] = f
	}
	var idx indexFile
	if b, rerr := os.ReadFile(filepath.Join(s.dir, indexName)); rerr == nil {
		// A torn index is ignored wholesale: it is only a hint.
		if json.Unmarshal(b, &idx) != nil {
			idx.Order = nil
		}
	}
	push := func(f found) {
		e := &entry{hash: f.hash, size: f.size}
		e.elem = s.lru.PushBack(e)
		s.entries[f.hash] = e
		s.bytes += f.size
	}
	for _, h := range idx.Order {
		if f, ok := byHash[h]; ok {
			push(f)
			delete(byHash, h)
		}
	}
	for _, f := range scanned {
		if _, ok := byHash[f.hash]; ok {
			push(f)
			delete(byHash, f.hash)
		}
	}
	s.evictOver("")
	return nil
}

// validate reads one entry file and checks it against its address:
// parseable JSON whose recorded (build, schema, key) hash to the
// file's own name. Returns the hash and file size on success.
func (s *Store) validate(path string) (string, int64, bool) {
	base := filepath.Base(path)
	if !strings.HasSuffix(base, ".json") {
		return "", 0, false
	}
	hash := strings.TrimSuffix(base, ".json")
	if len(hash) != 64 {
		return "", 0, false
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", 0, false
	}
	var e storedEntry
	if json.Unmarshal(b, &e) != nil || e.Key == "" || e.Build == "" || hashOf(e.Build, e.Schema, e.Key) != hash {
		return "", 0, false
	}
	return hash, int64(len(b)), true
}

// path maps a hash to its entry file: <dir>/<h[:2]>/<h>.json, fanned
// out over 256 subdirectories so huge stores don't pile every entry
// into one directory.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".json")
}

// Get returns the artifact this build stored under (schema, key), if
// present and intact. A torn, tampered, or mismatched entry is dropped
// and reported as a miss, never an error; so is every lookup when the
// executable cannot be read.
func (s *Store) Get(schema, key string) (json.RawMessage, bool) {
	if s == nil || key == "" {
		return nil, false
	}
	id, err := buildID()

	s.mu.Lock()
	defer s.mu.Unlock()

	if err != nil {
		s.misses++
		return nil, false
	}
	hash := hashOf(id, schema, key)
	path := s.path(hash)
	b, err := os.ReadFile(path)
	if err != nil {
		s.misses++
		s.forget(hash, false)
		return nil, false
	}
	var e storedEntry
	if json.Unmarshal(b, &e) != nil || e.Build != id || e.Schema != schema || e.Key != key {
		// Corrupt on disk: drop it so the recomputed entry replaces
		// it and the damage is visible in the counters.
		os.Remove(path)
		s.forget(hash, false)
		s.corrupt++
		s.misses++
		return nil, false
	}
	s.hits++
	s.touch(hash, int64(len(b)))
	return e.Data, true
}

// Put stores an artifact under (schema, key) for this build,
// atomically: the entry is fully written to a tmp file and renamed
// into place, so readers never observe a torn entry and a crash loses
// at most this write. Errors are advisory for cache-shaped callers —
// a failed Put only costs future hits.
func (s *Store) Put(ctx context.Context, schema, key string, data json.RawMessage) error {
	if s == nil || key == "" {
		return nil
	}
	id, err := buildID()
	if err != nil {
		return err
	}
	corrupt, err := s.fire(ctx, "put/"+key)
	if err != nil {
		return err
	}
	b, err := json.Marshal(&storedEntry{Build: id, Schema: schema, Key: key, Data: data})
	if err != nil {
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	if corrupt {
		// A corrupt-mode injection commits a deliberately torn entry:
		// the write proceeds so the read/recovery side must catch it.
		b = b[:len(b)/2]
	}
	hash := hashOf(id, schema, key)
	path := s.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}
	// The crash window: a ModeExit fault here terminates the process
	// with the tmp file written but the entry not yet committed —
	// exactly what kill -9 between write and rename leaves behind.
	if _, err := s.fire(ctx, "rename/"+key); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put %s: %w", key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch(hash, int64(len(b)))
	s.evictOver(hash)
	return nil
}

// fire triggers the store's fault point. A corrupt-mode injection
// reports corrupt=true so the caller writes deliberate damage (and
// the recovery path must catch it later); other modes surface as
// errors.
func (s *Store) fire(ctx context.Context, detail string) (corrupt bool, err error) {
	if s.opt.FaultPoint == "" {
		return false, nil
	}
	err = faultinject.Fire(ctx, s.opt.FaultPoint, detail)
	if err == nil {
		return false, nil
	}
	if faultinject.IsCorrupt(err) {
		return true, nil
	}
	return false, err
}

// touch records (or refreshes) an entry as most recently used.
// Callers hold s.mu.
func (s *Store) touch(hash string, size int64) {
	if e, ok := s.entries[hash]; ok {
		s.bytes += size - e.size
		e.size = size
		s.lru.MoveToBack(e.elem)
		return
	}
	e := &entry{hash: hash, size: size}
	e.elem = s.lru.PushBack(e)
	s.entries[hash] = e
	s.bytes += size
}

// forget drops an entry from the in-memory index (the file is the
// caller's business). Callers hold s.mu.
func (s *Store) forget(hash string, evicted bool) {
	e, ok := s.entries[hash]
	if !ok {
		return
	}
	s.lru.Remove(e.elem)
	delete(s.entries, hash)
	s.bytes -= e.size
	if evicted {
		s.evicted++
	}
}

// evictOver removes least-recently-used entries until the byte
// budget is met, never evicting keep (the entry just written).
// Callers hold s.mu.
func (s *Store) evictOver(keep string) {
	if s.opt.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opt.MaxBytes && s.lru.Len() > 0 {
		front := s.lru.Front()
		e := front.Value.(*entry)
		if e.hash == keep {
			if s.lru.Len() == 1 {
				return
			}
			s.lru.MoveToBack(front)
			continue
		}
		os.Remove(s.path(e.hash))
		s.forget(e.hash, true)
	}
}

// Counters returns a snapshot of the store's activity. nil-safe.
func (s *Store) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{
		Hits:           s.hits,
		Misses:         s.misses,
		CorruptDropped: s.corrupt,
		Evictions:      s.evicted,
		Entries:        int64(len(s.entries)),
		Bytes:          s.bytes,
	}
}

// Close flushes the LRU recency hint. The hint is written atomically
// and is purely advisory: losing it costs eviction accuracy after
// the next Open, never artifacts. nil-safe.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	idx := indexFile{Order: make([]string, 0, s.lru.Len())}
	for el := s.lru.Front(); el != nil; el = el.Next() {
		idx.Order = append(idx.Order, el.Value.(*entry).hash)
	}
	s.mu.Unlock()

	b, err := json.Marshal(&idx)
	if err != nil {
		return fmt.Errorf("artifact: close: %w", err)
	}
	path := filepath.Join(s.dir, indexName)
	tmp, err := os.CreateTemp(s.dir, ".tmp-idx-*")
	if err != nil {
		return fmt.Errorf("artifact: close: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: close: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: close: %w", err)
	}
	return nil
}
