package resultcache

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"stencilivc/internal/core"
)

// putAt stores an entry under key with the given creation stamp and
// file mtime (the sweep orders evictions by mtime, expiry by the
// stamp).
func putAt(t *testing.T, fs *FileStore, key core.CacheKey, created int64, mtime time.Time) {
	t.Helper()
	e := testEntry()
	e.Prov.CreatedUnix = created
	if err := fs.Put(key, e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(fs.Dir(), key.String()+entrySuffix)
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// TestSweepTTLExpiresOldEntries: reopening with a TTL drops entries
// whose recorded creation time is too old and keeps the rest; the
// unbounded open never sweeps.
func TestSweepTTLExpiresOldEntries(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	putAt(t, fs, testKey(1), now.Unix()-3600, now) // one hour old
	putAt(t, fs, testKey(2), now.Unix()-10, now)   // fresh

	// Reopen unbounded: nothing is swept.
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Len() != 2 || fs2.SweepReport() != (SweepStats{}) {
		t.Fatalf("unbounded reopen swept: len=%d report=%+v", fs2.Len(), fs2.SweepReport())
	}

	// Reopen with a 10-minute TTL: only the hour-old entry expires.
	fs3, err := OpenFileStoreSwept(dir, SweepPolicy{TTL: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if fs3.Len() != 1 {
		t.Fatalf("len after TTL sweep = %d, want 1", fs3.Len())
	}
	if got := fs3.SweepReport(); got.Expired != 1 || got.Corrupt != 0 || got.Evicted != 0 {
		t.Fatalf("sweep report = %+v, want 1 expired", got)
	}
	if _, ok, _ := fs3.Get(testKey(1)); ok {
		t.Error("expired entry still readable")
	}
	if _, ok, _ := fs3.Get(testKey(2)); !ok {
		t.Error("fresh entry was swept")
	}
}

// TestSweepMaxEntriesEvictsOldestByMtime: reopening with an entry cap
// keeps only the most recently written entries.
func TestSweepMaxEntriesEvictsOldestByMtime(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := byte(0); i < 5; i++ {
		// Key i was last written i minutes ago: key 4 is the oldest.
		putAt(t, fs, testKey(10+i), now.Unix(), now.Add(-time.Duration(i)*time.Minute))
	}
	fs2, err := OpenFileStoreSwept(dir, SweepPolicy{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Len() != 2 {
		t.Fatalf("len after cap sweep = %d, want 2", fs2.Len())
	}
	if got := fs2.SweepReport(); got.Evicted != 3 {
		t.Fatalf("sweep report = %+v, want 3 evicted", got)
	}
	for i := byte(0); i < 5; i++ {
		_, ok, err := fs2.Get(testKey(10 + i))
		if err != nil {
			t.Fatal(err)
		}
		if want := i < 2; ok != want {
			t.Errorf("key written %d minutes ago: present=%v, want %v", i, ok, want)
		}
	}
}

// TestSweepReclaimsCorruptEntries: the TTL pass decodes every entry, so
// a bit-rotted payload — or a checksum-valid one with impossible
// framing — is deleted at open instead of surfacing as ErrCorrupt on
// every future Get.
func TestSweepReclaimsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	putAt(t, fs, testKey(1), now.Unix(), now)
	putAt(t, fs, testKey(2), now.Unix(), now)

	// Rot one payload byte past the framing; the checksum catches it.
	path := filepath.Join(dir, testKey(1).String()+entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A starts count of 2^61 whose byte length wraps to zero.
	crafted := filepath.Join(dir, testKey(3).String()+entrySuffix)
	if err := os.WriteFile(crafted, seal(craftBody(1<<61, nil)), 0o644); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStoreSwept(dir, SweepPolicy{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got := fs2.SweepReport(); got.Corrupt != 2 || got.Expired != 0 {
		t.Fatalf("sweep report = %+v, want 2 corrupt", got)
	}
	if fs2.Len() != 1 {
		t.Fatalf("len = %d, want 1", fs2.Len())
	}
	for _, p := range []string{path, crafted} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("corrupt entry file %s still on disk after sweep", filepath.Base(p))
		}
	}
	if _, ok, err := fs2.Get(testKey(2)); !ok || err != nil {
		t.Errorf("healthy entry: ok=%v err=%v", ok, err)
	}
}

// TestSweepCombined: TTL expiry runs before the entry cap, so the cap
// counts only live survivors.
func TestSweepCombined(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	putAt(t, fs, testKey(1), now.Unix()-7200, now.Add(-3*time.Minute)) // expired
	putAt(t, fs, testKey(2), now.Unix(), now.Add(-2*time.Minute))
	putAt(t, fs, testKey(3), now.Unix(), now.Add(-time.Minute))
	putAt(t, fs, testKey(4), now.Unix(), now)

	fs2, err := OpenFileStoreSwept(dir, SweepPolicy{MaxEntries: 2, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	got := fs2.SweepReport()
	if got.Expired != 1 || got.Evicted != 1 {
		t.Fatalf("sweep report = %+v, want 1 expired + 1 evicted", got)
	}
	if fs2.Len() != 2 {
		t.Fatalf("len = %d, want 2", fs2.Len())
	}
	for i, want := range map[byte]bool{1: false, 2: false, 3: true, 4: true} {
		if _, ok, _ := fs2.Get(testKey(i)); ok != want {
			t.Errorf("key %d: present=%v, want %v", i, ok, want)
		}
	}
}
