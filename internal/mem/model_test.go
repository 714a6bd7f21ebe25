package mem

// The paged, copy-on-write image checked against the simplest possible
// memory: one flat byte slice and one read-only flag per unit. Every
// operation runs on both, and after each one every observable — loaded
// values, fault kinds, protected-store hook calls, dirty units, image
// bytes, read-only bits and image comparisons — must agree.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
)

// modelUnits is the size of the fuzzed image, in protection units: small
// enough to compare whole images after every step, with two interior page
// boundaries and an end to straddle.
const modelUnits = 3

const modelSize = modelUnits << ProtectShift

// flat is the reference memory.
type flat struct {
	data     []byte
	ro       []bool
	injected map[uint32]bool
	veto     uint32 // FaultHook vetoes writes here when vetoOn
	vetoOn   bool
	tracking bool
	dirty    map[uint32]bool
	hooks    []string // protected-store hook calls, as "addr/size"
}

func newFlat() *flat {
	return &flat{
		data:     make([]byte, modelSize),
		ro:       make([]bool, modelUnits),
		injected: map[uint32]bool{},
		dirty:    map[uint32]bool{},
	}
}

// clone mirrors Memory.Clone: bytes and read-only bits only.
func (f *flat) clone() *flat {
	n := newFlat()
	copy(n.data, f.data)
	copy(n.ro, f.ro)
	return n
}

func (f *flat) check(addr uint32, size int, write bool) error {
	if uint64(addr)+uint64(size) > modelSize {
		return &Fault{Addr: addr, Write: write, Kind: FaultOutOfBounds}
	}
	if f.injected[addr] || (write && f.vetoOn && addr == f.veto) {
		return &Fault{Addr: addr, Write: write, Kind: FaultInjected}
	}
	return nil
}

func (f *flat) read(addr uint32, size int) (uint32, error) {
	if err := f.check(addr, size, false); err != nil {
		return 0, err
	}
	var v uint32
	for i := 0; i < size; i++ {
		v = v<<8 | uint32(f.data[addr+uint32(i)])
	}
	return v, nil
}

func (f *flat) write(addr uint32, size int, v uint32) error {
	if err := f.check(addr, size, true); err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		f.data[addr+uint32(i)] = byte(v >> (8 * (size - 1 - i)))
	}
	if f.tracking {
		f.dirty[addr>>ProtectShift] = true
		f.dirty[(addr+uint32(size)-1)>>ProtectShift] = true
	}
	if f.ro[addr>>ProtectShift] {
		f.hooks = append(f.hooks, fmt.Sprintf("%#x/%d", addr, size))
	}
	return nil
}

func (f *flat) takeDirty() []uint32 {
	var us []uint32
	for u := range f.dirty {
		us = append(us, u)
	}
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	f.dirty = map[uint32]bool{}
	return us
}

func firstDiff(a, b []byte) int64 {
	for i := range a {
		if a[i] != b[i] {
			return int64(i)
		}
	}
	return -1
}

// image pairs a Memory under test with its reference.
type image struct {
	m     *Memory
	f     *flat
	hooks []string
}

func newImage(m *Memory, f *flat) *image {
	im := &image{m: m, f: f}
	m.OnProtectedStore = func(addr uint32, size int) {
		im.hooks = append(im.hooks, fmt.Sprintf("%#x/%d", addr, size))
	}
	return im
}

// Model operations, one per 8-byte record: op, target image, address
// (two bytes), then four operand bytes.
const (
	opRead = iota
	opWrite
	opLoadImage
	opClone
	opSetReadOnly
	opInject
	opFaultHook
	opTrack
	opBytes
	numOps
)

// modelAddr decodes an address. With the high bit set it lands within
// four bytes either side of a unit boundary or the end of memory (unit 0
// wraps below zero, far out of range); otherwise anywhere in memory or
// just past its end.
func modelAddr(hi, lo byte) uint32 {
	if hi&0x80 != 0 {
		return uint32(hi&3)<<ProtectShift + uint32(lo%8) - 4
	}
	return (uint32(hi)<<8 | uint32(lo)) % (modelSize + 8)
}

func faultKind(err error) string {
	var f *Fault
	if errors.As(err, &f) {
		return fmt.Sprintf("%d@%#x/w=%t", f.Kind, f.Addr, f.Write)
	}
	if err != nil {
		return err.Error()
	}
	return "ok"
}

// runModel replays ops on a fresh image and its reference, failing at the
// first disagreement.
func runModel(t *testing.T, ops []byte) {
	t.Helper()
	imgs := []*image{newImage(New(modelSize-100), newFlat())}
	for step := 0; len(ops) >= 8; step, ops = step+1, ops[8:] {
		op := ops[0] % numOps
		im := imgs[int(ops[1])%len(imgs)]
		addr := modelAddr(ops[2], ops[3])
		v := binary.BigEndian.Uint32(ops[4:])
		size := 1 << (ops[4] % 3)
		where := fmt.Sprintf("step %d op %d image %d addr %#x size %d", step, op, int(ops[1])%len(imgs), addr, size)
		switch op {
		case opRead:
			var got uint32
			var err error
			switch size {
			case 1:
				got, err = im.m.Read8(addr)
			case 2:
				got, err = im.m.Read16(addr)
			default:
				got, err = im.m.Read32(addr)
			}
			want, werr := im.f.read(addr, size)
			if got != want || faultKind(err) != faultKind(werr) {
				t.Fatalf("%s: read %#x (%s), want %#x (%s)", where, got, faultKind(err), want, faultKind(werr))
			}
		case opWrite:
			var err error
			switch size {
			case 1:
				err = im.m.Write8(addr, v)
			case 2:
				err = im.m.Write16(addr, v)
			default:
				err = im.m.Write32(addr, v)
			}
			if werr := im.f.write(addr, size, v); faultKind(err) != faultKind(werr) {
				t.Fatalf("%s: write fault %s, want %s", where, faultKind(err), faultKind(werr))
			}
		case opLoadImage:
			// Up to about two units of patterned bytes.
			n := int(binary.BigEndian.Uint16(ops[5:])) % (2*pageSize + 16)
			b := make([]byte, n)
			for i := range b {
				b[i] = ops[7] + byte(i)
			}
			err := im.m.LoadImage(addr, b)
			var werr error
			if uint64(addr)+uint64(n) > modelSize {
				werr = &Fault{Addr: addr, Write: true, Kind: FaultOutOfBounds}
			} else {
				copy(im.f.data[addr:], b)
			}
			if faultKind(err) != faultKind(werr) {
				t.Fatalf("%s: LoadImage(%d bytes) fault %s, want %s", where, n, faultKind(err), faultKind(werr))
			}
		case opClone:
			c := newImage(im.m.Clone(), im.f.clone())
			if len(imgs) < 4 {
				imgs = append(imgs, c)
			} else {
				imgs[int(ops[4])%len(imgs)] = c
			}
		case opSetReadOnly:
			on := ops[4]&1 != 0
			im.m.SetReadOnly(addr, on)
			if u := addr >> ProtectShift; u < modelUnits {
				im.f.ro[u] = on
			}
		case opInject:
			clear := ops[4]&1 != 0
			im.m.InjectFault(addr, clear)
			im.f.injected[addr] = !clear
		case opFaultHook:
			im.f.vetoOn, im.f.veto = ops[4]&1 != 0, addr
			if im.f.vetoOn {
				im.m.FaultHook = func(a uint32, _ int, write bool) bool { return write && a == addr }
			} else {
				im.m.FaultHook = nil
			}
		case opTrack:
			got, want := im.m.TakeDirtyUnits(), im.f.takeDirty()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: dirty units %v, want %v", where, got, want)
			}
			on := ops[4]&1 != 0
			im.m.TrackWrites(on)
			im.f.tracking = on
		case opBytes:
			n := uint32(binary.BigEndian.Uint16(ops[5:])) % (2*pageSize + 16)
			got := im.m.Bytes(addr, n)
			if uint64(addr)+uint64(n) > modelSize {
				if got != nil {
					t.Fatalf("%s: Bytes(%d) out of range returned %d bytes", where, n, len(got))
				}
			} else if !bytes.Equal(got, im.f.data[addr:addr+n]) {
				t.Fatalf("%s: Bytes(%d) differs from the model", where, n)
			}
		}
		checkImages(t, where, imgs)
	}
}

// checkImages compares every image with its reference: bytes, read-only
// bits, hook calls, and the image comparisons against the first image.
func checkImages(t *testing.T, where string, imgs []*image) {
	t.Helper()
	for i, im := range imgs {
		if im.m.Size() != modelSize {
			t.Fatalf("%s: image %d size %d", where, i, im.m.Size())
		}
		if d := firstDiff(im.m.Bytes(0, modelSize), im.f.data); d >= 0 {
			t.Fatalf("%s: image %d differs from the model at %#x", where, i, d)
		}
		for u := uint32(0); u < modelUnits; u++ {
			if im.m.ReadOnly(u<<ProtectShift) != im.f.ro[u] {
				t.Fatalf("%s: image %d unit %d read-only bit differs", where, i, u)
			}
		}
		if fmt.Sprint(im.hooks) != fmt.Sprint(im.f.hooks) {
			t.Fatalf("%s: image %d hook calls %v, want %v", where, i, im.hooks, im.f.hooks)
		}
		want := firstDiff(imgs[0].f.data, im.f.data)
		if got := imgs[0].m.FirstDifference(im.m); got != want {
			t.Fatalf("%s: FirstDifference(image 0, image %d) = %d, want %d", where, i, got, want)
		}
		if got := im.m.FirstDifference(imgs[0].m); got != want {
			t.Fatalf("%s: FirstDifference(image %d, image 0) = %d, want %d", where, i, got, want)
		}
		if imgs[0].m.EqualData(im.m) != (want < 0) {
			t.Fatalf("%s: EqualData(image 0, image %d) = %t", where, i, want >= 0)
		}
	}
}

// rec encodes one model operation at a plain address (below 0x8000).
func rec(op, img byte, addr uint32, operand uint32) []byte {
	b := []byte{op, img, byte(addr >> 8), byte(addr), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(b[4:], operand)
	return b
}

// near encodes an address within four bytes of unit boundary u (u=3 is
// the end of memory).
func near(op, img byte, u, off byte, operand uint32) []byte {
	b := rec(op, img, 0, operand)
	b[2], b[3] = 0x80|u, off+4
	return b
}

func join(recs ...[]byte) []byte { return bytes.Join(recs, nil) }

// sized sets the access size of a read or write record (1, 2 or 4) in
// its first operand byte, keeping the low operand bytes as the value.
func sized(size int, v uint32) uint32 {
	s := map[int]uint32{1: 0, 2: 1, 4: 2}[size]
	return s<<24 | v&0xffffff
}

func modelSeeds() [][]byte {
	return [][]byte{
		// Big-endian word and halfword straddling the first 4K boundary,
		// read back whole and byte by byte.
		join(
			near(opWrite, 0, 1, 0xfe, sized(4, 0xa1b2c3)),
			near(opRead, 0, 1, 0xfe, sized(4, 0)),
			near(opRead, 0, 1, 0xff, sized(1, 0)),
			near(opRead, 0, 1, 0x00, sized(1, 0)),
			near(opWrite, 0, 2, 0xff, sized(2, 0xbeef)),
			near(opRead, 0, 2, 0xfd, sized(4, 0)),
			near(opRead, 0, 2, 0xff, sized(2, 0)),
		),
		// Accesses straddling the end of memory fault; the last word does not.
		join(
			near(opWrite, 0, 3, 0xfe, sized(4, 1)),
			near(opRead, 0, 3, 0xff, sized(2, 0)),
			near(opWrite, 0, 3, 0xfc, sized(4, 0x7f0102)),
			near(opRead, 0, 3, 0xfc, sized(4, 0)),
			near(opLoadImage, 0, 3, 0xfe, 0x00000300),
			near(opRead, 0, 0, 0xfc, sized(4, 0)),
		),
		// Clone, then write each side, including a straddling store on a
		// shared page and a LoadImage across a shared page.
		join(
			rec(opWrite, 0, 0x100, sized(4, 0x112233)),
			near(opWrite, 0, 1, 0xfe, sized(4, 0x445566)),
			rec(opClone, 0, 0, 0),
			rec(opWrite, 1, 0x100, sized(4, 0x778899)),
			rec(opRead, 0, 0x100, sized(4, 0)),
			near(opWrite, 0, 1, 0xff, sized(2, 0xaabb)),
			near(opRead, 1, 1, 0xfe, sized(4, 0)),
			rec(opClone, 1, 0, 0),
			rec(opLoadImage, 2, 0x0ff0, 0x00200005),
			rec(opBytes, 0, 0x0ff0, 0x00200000),
			rec(opBytes, 2, 0x0ff0, 0x00200000),
			rec(opWrite, 0, 0x2004, sized(1, 9)),
		),
		// Protection bits, hook calls and dirty units, through a clone.
		join(
			rec(opTrack, 0, 0, 1),
			rec(opSetReadOnly, 0, 0x1000, 1),
			rec(opWrite, 0, 0x1004, sized(4, 0x42)),
			near(opWrite, 0, 1, 0xfe, sized(4, 0x43)),
			near(opWrite, 0, 2, 0xfe, sized(4, 0x44)),
			rec(opClone, 0, 0, 0),
			rec(opWrite, 1, 0x1008, sized(2, 0x45)),
			rec(opTrack, 0, 0, 1),
			rec(opSetReadOnly, 0, 0x1000, 0),
			rec(opWrite, 0, 0x1010, sized(1, 0x46)),
			rec(opTrack, 0, 0, 0),
			rec(opLoadImage, 1, 0x1000, 0x00100003),
		),
		// Injected faults and the fault hook on reads and writes, out of
		// range addresses, and a clone that copies neither.
		join(
			rec(opInject, 0, 0x80, 0),
			rec(opRead, 0, 0x80, sized(4, 0)),
			rec(opWrite, 0, 0x80, sized(1, 0)),
			rec(opClone, 0, 0, 0),
			rec(opWrite, 1, 0x80, sized(4, 7)),
			rec(opInject, 0, 0x80, 1),
			rec(opRead, 0, 0x80, sized(4, 0)),
			rec(opFaultHook, 0, 0x200, 1),
			rec(opWrite, 0, 0x200, sized(2, 3)),
			rec(opRead, 0, 0x200, sized(2, 0)),
			rec(opFaultHook, 0, 0x200, 0),
			rec(opWrite, 0, 0x200, sized(2, 3)),
			rec(opRead, 0, 0x3004, sized(1, 0)),
			rec(opBytes, 0, 0x2ffe, 0x00000400),
		),
	}
}

func FuzzMemoryModel(f *testing.F) {
	for _, s := range modelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runModel(t, ops)
	})
}

// TestSparseResidency pins the sparse layout: a full-size image with a
// two-page program costs a page table and two pages, not 8 MiB, and a
// clone of it costs another page table, not another image.
func TestSparseResidency(t *testing.T) {
	img := make([]byte, 2*pageSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(8 << 20)
	if err := m.LoadImage(0x10000, img); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("New(8 MiB) + two-page LoadImage + Clone allocated %d bytes, want < 128 KiB", got)
	}
	runtime.ReadMemStats(&before)
	m2 := New(8 << 20)
	if err := m2.LoadImage(0x10000, img); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("New(8 MiB) + two-page LoadImage allocated %d bytes, want < 64 KiB", got)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(m2)
}

// TestCloneCopiesOnWrite pins the copy-on-write contract: a clone shares
// pages until either side stores, a store copies only the page it
// writes, and a view returned by Bytes before the store keeps the old
// bytes on the side that copied.
func TestCloneCopiesOnWrite(t *testing.T) {
	m := New(4 * pageSize)
	_ = m.Write32(0x10, 1)
	_ = m.Write32(pageSize+0x10, 2)
	c := m.Clone()
	if m.pages[0] != c.pages[0] || m.pages[1] != c.pages[1] {
		t.Fatal("clone copied resident pages")
	}
	view := m.Bytes(0x10, 4)
	_ = m.Write32(0x10, 3)
	if m.pages[0] == c.pages[0] || m.pages[1] != c.pages[1] {
		t.Fatal("a store should copy exactly the page it writes")
	}
	if v, _ := c.Read32(0x10); v != 1 {
		t.Fatalf("store leaked into the clone: %#x", v)
	}
	if binary.BigEndian.Uint32(view) != 1 {
		t.Fatal("a view of a shared page changed under a store that copied it")
	}
	_ = c.Write32(pageSize+0x10, 4)
	if v, _ := m.Read32(pageSize + 0x10); v != 2 {
		t.Fatalf("clone store leaked into the original: %#x", v)
	}
	if m.pages[2] != nil || c.pages[2] != nil {
		t.Fatal("an unwritten page became resident")
	}
}

// TestFirstDifferenceSizes pins the comparison of images of different
// sizes: an identical common prefix differs at the end of the smaller.
func TestFirstDifferenceSizes(t *testing.T) {
	a, b := New(pageSize), New(2*pageSize)
	if a.EqualData(b) || a.FirstDifference(b) != pageSize || b.FirstDifference(a) != pageSize {
		t.Fatal("images of different sizes must differ at the end of the smaller")
	}
	_ = b.Write8(0x20, 1)
	if a.FirstDifference(b) != 0x20 {
		t.Fatalf("FirstDifference = %#x, want 0x20", a.FirstDifference(b))
	}
}
