package txcache_test

// Tests for the two-tier store: the decoded hot tier over the backing
// tier, single-flight decode, entry compression, the per-reason miss
// taxonomy, and concurrent shared-Store access (the fleet scenario: N
// machines over one store, exercised under -race by CI's race-async
// target).

import (
	"bytes"
	"compress/flate"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"daisy/internal/txcache"
	"daisy/internal/vliw"
)

// TestHotTierServesWithoutDiskReads pins the tentpole property: after the
// first Load decodes an entry, every further Load of the key is served
// from the hot tier — zero additional backing reads, zero decodes.
func TestHotTierServesWithoutDiskReads(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key(pt)
	if _, err := s.Save(k, groups); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := s.Load(k); !ok {
			t.Fatalf("load %d missed", i)
		}
	}
	st := s.Stats()
	if st.DiskReads != 1 || st.Decodes != 1 {
		t.Fatalf("disk reads=%d decodes=%d, want 1/1 (hot tier must absorb repeats): %+v",
			st.DiskReads, st.Decodes, st)
	}
	if st.Hits != 5 || st.HotHits != 4 {
		t.Fatalf("hits=%d hot=%d, want 5/4", st.Hits, st.HotHits)
	}
	if st.BytesServedDisk == 0 || st.BytesServedHot == 0 {
		t.Fatalf("bytes served not accounted: %+v", st)
	}
	if n, b := s.HotTier(); n != 1 || b <= 0 {
		t.Fatalf("hot tier occupancy %d entries / %d bytes, want 1 / >0", n, b)
	}
}

// TestHotTierIsolation pins that served groups are private copies: a
// machine mutating what it installed (layout addresses, chain patches)
// must not leak into what the next machine is served.
func TestHotTierIsolation(t *testing.T) {
	pt, groups := translated(t)
	s := txcache.OpenMemory()
	k := key(pt)
	if _, err := s.Save(k, groups); err != nil {
		t.Fatal(err)
	}
	first, ok := s.Load(k)
	if !ok {
		t.Fatal("first load missed")
	}
	// Mutate like a machine: layout + chain patch + a parcel edit.
	first[0].VLIWs[0].Addr = 0xdeadbeef
	first[0].VLIWs[0].Walk(func(n *vliw.Node) {
		if len(n.Ops) > 0 {
			n.Ops[0].Imm ^= 0x55
		}
		if n.Leaf() {
			n.Exit.Chain = first[0]
		}
	})
	second, ok := s.Load(k)
	if !ok {
		t.Fatal("second load missed")
	}
	if second[0].VLIWs[0].Addr == 0xdeadbeef {
		t.Fatal("first machine's layout leaked into the second's groups")
	}
	second[0].VLIWs[0].Walk(func(n *vliw.Node) {
		if n.Leaf() && n.Exit.Chain != nil {
			t.Fatal("first machine's chain patch leaked into the second's groups")
		}
	})
	want, err := vliw.EncodeGroup(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := vliw.EncodeGroup(second[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("hot-tier copy does not re-encode to the saved bytes")
	}
}

// TestCompression pins the disk-tier compression: stored bytes are no
// larger than raw bytes (and strictly smaller for this real translation),
// a reopened store decodes the compressed entry byte-exactly, and fsck
// validates it.
func TestCompression(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key(pt)
	if _, err := s.Save(k, groups); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BytesRaw == 0 || st.BytesStored == 0 {
		t.Fatalf("compression accounting missing: %+v", st)
	}
	if st.BytesStored >= st.BytesRaw {
		t.Fatalf("entry did not compress: raw=%d stored=%d", st.BytesRaw, st.BytesStored)
	}
	s2, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Load(k)
	if !ok || len(got) != len(groups) {
		t.Fatalf("compressed entry unreadable by fresh store: ok=%v n=%d", ok, len(got))
	}
	for i := range groups {
		want, _ := vliw.EncodeGroup(groups[i])
		have, _ := vliw.EncodeGroup(got[i])
		if !bytes.Equal(want, have) {
			t.Fatalf("group %d decode differs through compression", i)
		}
	}
	if rep := s2.Fsck(false); rep.Bad() || rep.OK != 1 {
		t.Fatalf("fsck rejects a healthy compressed entry: %v", rep)
	}
	// The header-only Usage scan (daisy-txcache stat) must agree with the
	// write path's accounting without decoding anything.
	u := s2.Usage()
	if u.Entries != 1 || u.Compressed != 1 || u.Short != 0 {
		t.Fatalf("usage scan misread the store: %+v", u)
	}
	if u.RawSize != st.BytesRaw || u.StoredSize != st.BytesStored {
		t.Fatalf("usage scan disagrees with save accounting: %+v vs %+v", u, st)
	}
	if u.Ratio() <= 1 {
		t.Fatalf("compressed store reports ratio %.2f", u.Ratio())
	}
	if k2, ok := txcache.ParseName(txcacheFilename(k)); !ok || k2 != k {
		t.Fatalf("ParseName does not invert the entry filename")
	}
}

// TestPooledCompressorMatchesFresh pins that reusing DEFLATE state across
// Saves changes no stored byte: every entry's compressed body, written by
// a compressor that already encoded other entries, equals a fresh
// BestSpeed writer's encoding of the same raw body, and every entry still
// loads from a fresh store.
func TestPooledCompressorMatchesFresh(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := key(pt)
	sets := [][]*vliw.Group{groups, groups[:1], groups, groups[len(groups)-1:], groups}
	for i, gs := range sets {
		if _, err := s.Save(keyAt(base, i), gs); err != nil {
			t.Fatal(err)
		}
	}
	const codecAt, headerSize = 50, 55 // codec byte; magic..raw length
	s2, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, gs := range sets {
		k := keyAt(base, i)
		payload, err := os.ReadFile(filepath.Join(dir, txcacheFilename(k)))
		if err != nil {
			t.Fatal(err)
		}
		if payload[codecAt] != 1 {
			t.Fatalf("entry %d not compressed (codec %d)", i, payload[codecAt])
		}
		blob := payload[headerSize : len(payload)-4]
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(blob)))
		if err != nil {
			t.Fatal(err)
		}
		var fresh bytes.Buffer
		fw, _ := flate.NewWriter(&fresh, flate.BestSpeed)
		fw.Write(raw)
		fw.Close()
		if !bytes.Equal(fresh.Bytes(), blob) {
			t.Fatalf("entry %d: pooled compressor wrote %d bytes, a fresh one %d", i, len(blob), fresh.Len())
		}
		if got, ok := s2.Load(k); !ok || len(got) != len(gs) {
			t.Fatalf("entry %d does not load back: ok=%v n=%d", i, ok, len(got))
		}
	}
}

// TestMissTaxonomy pins the four-way miss classification on both the
// Stats counters and the LoadReason result.
func TestMissTaxonomy(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key(pt)

	// Absent.
	if _, _, reason := s.LoadReason(k); reason != txcache.MissAbsent {
		t.Fatalf("empty store: reason=%v, want absent", reason)
	}

	// Corrupt.
	if _, err := s.Save(k, groups); err != nil {
		t.Fatal(err)
	}
	s.Corrupt()
	if _, _, reason := s.LoadReason(k); reason != txcache.MissCorrupt {
		t.Fatalf("corrupt entry: reason=%v, want corrupt", reason)
	}

	// Version skew.
	if _, err := s.Save(k, groups); err != nil {
		t.Fatal(err)
	}
	s.SkewVersion(txcache.Version + 1)
	if _, _, reason := s.LoadReason(k); reason != txcache.MissVersion {
		t.Fatalf("skewed entry: reason=%v, want version-skew", reason)
	}

	// Options/key mismatch: an entry whose payload echo disagrees with the
	// content address it sits under (a cross-copied file).
	if _, err := s.Save(k, groups); err != nil {
		t.Fatal(err)
	}
	k2 := k
	k2.OptFP++
	var src string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".dtx" {
			src = e.Name()
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, src))
	if err != nil {
		t.Fatal(err)
	}
	// k2's filename differs only in the OptFP field.
	dst := filepath.Join(dir, txcacheFilename(k2))
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, reason := s.LoadReason(k2); reason != txcache.MissOptions {
		t.Fatalf("cross-copied entry: reason=%v, want options-mismatch", reason)
	}

	st := s.Stats()
	if st.Absent != 1 || st.Corrupt != 1 || st.VersionSkew != 1 || st.OptionsMismatch != 1 {
		t.Fatalf("taxonomy counters %+v, want 1 of each", st)
	}
	if st.Misses != st.Absent+st.Corrupt+st.VersionSkew+st.OptionsMismatch {
		t.Fatalf("miss reasons do not partition misses: %+v", st)
	}
}

// txcacheFilename mirrors Key.filename for test fixture construction.
func txcacheFilename(k txcache.Key) string {
	return filepathJoinName(k)
}

func filepathJoinName(k txcache.Key) string {
	// Same format string as the store's content address.
	b := make([]byte, 0, 96)
	b = appendHex(b, uint64(k.PageBase), 8)
	b = append(b, '-')
	b = appendHex(b, k.OptFP, 16)
	b = append(b, '-')
	for _, x := range k.Digest {
		b = appendHex(b, uint64(x), 2)
	}
	return string(append(b, ".dtx"...))
}

func appendHex(b []byte, v uint64, width int) []byte {
	const digits = "0123456789abcdef"
	for i := width - 1; i >= 0; i-- {
		b = append(b, digits[(v>>(uint(i)*4))&0xf])
	}
	return b
}

// TestSingleFlightDecode pins single-flight: a fleet of goroutines
// loading one key performs exactly one backing read and one decode; every
// other caller is served in memory.
func TestSingleFlightDecode(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key(pt)
	if _, err := s.Save(k, groups); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, ok := s.Load(k)
			if !ok || len(g) == 0 {
				errs <- "concurrent load missed"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := s.Stats()
	if st.Decodes != 1 {
		t.Fatalf("decodes=%d, want 1 (single-flight)", st.Decodes)
	}
	if st.DiskReads != 1 {
		t.Fatalf("disk reads=%d, want 1", st.DiskReads)
	}
	if st.Hits != n {
		t.Fatalf("hits=%d, want %d", st.Hits, n)
	}
}

// TestHotTierBound pins the hot tier's size bound and LRU eviction, and
// that a negative bound disables the tier entirely.
func TestHotTierBound(t *testing.T) {
	pt, groups := translated(t)
	base := key(pt)
	s := txcache.OpenMemory()
	for i := 0; i < 4; i++ {
		if _, err := s.Save(keyAt(base, i), groups); err != nil {
			t.Fatal(err)
		}
	}
	// Size one resident entry, then bound the tier to two of them.
	if _, ok := s.Load(keyAt(base, 0)); !ok {
		t.Fatal("load missed")
	}
	_, one := s.HotTier()
	if one <= 0 {
		t.Fatal("no hot occupancy after a load")
	}
	s.SetHotMaxBytes(2 * one)
	for i := 0; i < 4; i++ {
		if _, ok := s.Load(keyAt(base, i)); !ok {
			t.Fatalf("load %d missed", i)
		}
	}
	n, b := s.HotTier()
	if n != 2 || b > 2*one {
		t.Fatalf("hot tier %d entries / %d bytes, want 2 entries <= %d bytes", n, b, 2*one)
	}
	if st := s.Stats(); st.HotEvictions == 0 {
		t.Fatalf("no hot evictions counted: %+v", st)
	}
	// LRU: entries 2 and 3 are resident; 0 must re-read the backing tier.
	before := s.Stats().DiskReads
	if _, ok := s.Load(keyAt(base, 3)); !ok {
		t.Fatal("resident load missed")
	}
	if got := s.Stats().DiskReads; got != before {
		t.Fatalf("resident key read the backing tier (%d -> %d)", before, got)
	}
	if _, ok := s.Load(keyAt(base, 0)); !ok {
		t.Fatal("evicted load missed")
	}
	if got := s.Stats().DiskReads; got != before+1 {
		t.Fatalf("evicted key served without a backing read")
	}

	// Disable: the tier flushes and stays empty.
	s.SetHotMaxBytes(-1)
	if n, b := s.HotTier(); n != 0 || b != 0 {
		t.Fatalf("disabled tier still holds %d entries / %d bytes", n, b)
	}
	r0 := s.Stats().DiskReads
	for i := 0; i < 3; i++ {
		if _, ok := s.Load(keyAt(base, 1)); !ok {
			t.Fatal("load missed with tier disabled")
		}
	}
	if got := s.Stats().DiskReads; got != r0+3 {
		t.Fatalf("disabled tier absorbed reads: %d -> %d, want +3", r0, got)
	}
}

// TestBackingEvictionDropsHotCopy pins tier coherence: when the size
// bound evicts a backing entry, its decoded copy leaves the hot tier too,
// so the hot tier can never serve a key the backing tier has dropped.
func TestBackingEvictionDropsHotCopy(t *testing.T) {
	pt, groups := translated(t)
	base := key(pt)
	s := txcache.OpenMemory()
	if _, err := s.Save(base, groups); err != nil {
		t.Fatal(err)
	}
	_, one, err := s.GC(0)
	if err != nil || one <= 0 {
		t.Fatalf("probe GC: freed=%d err=%v", one, err)
	}
	s.SetMaxBytes(2 * one)
	for i := 0; i < 2; i++ {
		if _, err := s.Save(keyAt(base, i), groups); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Load(keyAt(base, i)); !ok {
			t.Fatalf("load %d missed", i)
		}
	}
	if n, _ := s.HotTier(); n != 2 {
		t.Fatalf("hot tier has %d entries, want 2", n)
	}
	// Third save evicts the LRU backing entry (key 0) — and its hot copy.
	if _, err := s.Save(keyAt(base, 2), groups); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.HotTier(); n != 1 {
		t.Fatalf("hot tier has %d entries after backing eviction, want 1", n)
	}
	if _, ok := s.Load(keyAt(base, 0)); ok {
		t.Fatal("evicted key still served")
	}
}

// TestConcurrentSharedStore is the fleet soak: goroutine-machines Load
// and Save a shared key set while maintenance (GC, size bounds, fsck)
// runs against them. Run under -race by CI; the assertions here are the
// invariants that must hold whatever the interleaving.
func TestConcurrentSharedStore(t *testing.T) {
	pt, groups := translated(t)
	base := key(pt)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 6
	const machines = 8
	var wg sync.WaitGroup
	for w := 0; w < machines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := keyAt(base, (w+i)%keys)
				if g, ok := s.Load(k); ok {
					// Mutate what we were served, like a machine would;
					// isolation means this can never corrupt the store.
					g[0].VLIWs[0].Addr = uint32(w)
				} else {
					if _, err := s.Save(k, groups); err != nil {
						t.Errorf("save: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Maintenance churn against the live machines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			s.SetHotMaxBytes(int64(1 + i*1024))
			s.SetMaxBytes(int64(4096 * (i + 1)))
			if _, _, err := s.GC(int64(2048 * (i + 1))); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
			s.SetMaxBytes(0)
		}
		s.SetHotMaxBytes(0)
	}()
	wg.Wait()

	if rep := s.Fsck(false); rep.Corrupt+rep.BadName+rep.TmpFiles > 0 {
		t.Fatalf("store damaged by concurrent use: %v", rep)
	}
	n, b := s.HotTier()
	if n < 0 || b < 0 {
		t.Fatalf("hot tier accounting went negative: %d entries / %d bytes", n, b)
	}
	// Every key must still round-trip.
	for i := 0; i < keys; i++ {
		k := keyAt(base, i)
		if _, ok := s.Load(k); !ok {
			if _, err := s.Save(k, groups); err != nil {
				t.Fatalf("key %d unwritable after soak: %v", i, err)
			}
			if _, ok := s.Load(k); !ok {
				t.Fatalf("key %d unreadable after soak", i)
			}
		}
	}
}
