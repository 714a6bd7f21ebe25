// Package mem implements the base architecture's physical memory: the low
// section of the VLIW's virtual address space (Figure 3.1 of the paper).
//
// Every 4K "unit" of physical memory carries a read-only bit that is not
// architected in the base architecture (§3.2). The VMM sets the bit when it
// translates code on the page; any store into a protected unit invokes the
// code-modification hook so the VMM can invalidate the translation. The
// store itself still completes — the paper requires the machine state at
// the interrupt to correspond to the point just after the modifying
// instruction.
//
// The image is sparse and paged along the same 4K units: a unit's page is
// allocated on its first store or LoadImage, and a unit never written
// reads as zero, so New costs a page table, not the whole image. Clone is
// copy-on-write: it copies the page table, and each side copies a page
// the first time it stores into it. Interpretive compilation (Chapter 6)
// clones the machine's memory to interpret ahead of translation; that
// clone costs the pages the look-ahead writes, not the image.
//
// The package also supports injecting data storage faults at chosen
// addresses, which drives the precise-exception experiments.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// ProtectShift is log2 of the protection unit size (4K, as the paper
// suggests for PowerPC).
const ProtectShift = 12

// pageSize is the size of one protection unit, and of one page of the
// sparse image.
const pageSize = 1 << ProtectShift

// page holds the bytes of one protection unit.
type page = [pageSize]byte

// Fault describes a storage exception raised by a memory access.
type Fault struct {
	Addr  uint32
	Write bool
	Kind  FaultKind
}

// FaultKind classifies storage exceptions.
type FaultKind uint8

const (
	// FaultOutOfBounds means the physical address does not exist.
	FaultOutOfBounds FaultKind = iota
	// FaultInjected means a test harness asked for a fault at this address.
	FaultInjected
	// FaultUnmapped means address translation found no valid page.
	FaultUnmapped
)

func (f *Fault) Error() string {
	op := "load"
	if f.Write {
		op = "store"
	}
	kind := [...]string{"out of bounds", "injected", "unmapped"}[f.Kind]
	return fmt.Sprintf("mem: %s fault at %#x (%s)", op, f.Addr, kind)
}

// Memory is the base architecture's physical memory image.
//
// It is stored as one page per protection unit. A nil page reads as zero
// and is allocated on its first store or LoadImage. A page marked shared
// may also be referenced by a clone (or by the image this one was cloned
// from) and is never written in place: the first store into it on either
// side copies it first. So a store into one image is never seen by
// another, and a shared page is only ever read, never raced on.
//
// The zero value is unusable; call New.
type Memory struct {
	pages  []*page
	shared []bool // page is referenced by another image: copy before storing
	ro     []bool // read-only bit per protection unit

	// OnProtectedStore, if non-nil, is called after a store writes into a
	// unit whose read-only bit is set. addr is the store address.
	OnProtectedStore func(addr uint32, size int)

	// FaultHook, if non-nil, may veto any access before it is performed:
	// returning true raises FaultInjected at that address. It is the
	// memory-level injection point of the chaos harness; InjectFault is
	// the address-keyed special case kept for the exception experiments.
	FaultHook func(addr uint32, size int, write bool) bool

	injected map[uint32]bool

	trackWrites bool
	dirtyUnits  map[uint32]struct{}
}

// New returns size bytes of zeroed physical memory. size is rounded up to
// a whole protection unit. No page is allocated until it is written.
func New(size uint32) *Memory {
	units := (size + pageSize - 1) >> ProtectShift
	return &Memory{
		pages:  make([]*page, units),
		shared: make([]bool, units),
		ro:     make([]bool, units),
	}
}

// Size returns the size of physical memory in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.pages)) << ProtectShift }

// limit is the size of physical memory in bytes, for bounds checks.
func (m *Memory) limit() uint64 { return uint64(len(m.pages)) << ProtectShift }

// Clone returns an independent copy of the memory image, with its
// read-only bits (hooks, injected faults and write tracking are not
// copied). It copies only the page table: every resident page becomes
// shared by both images, and whichever stores into it first copies it.
// Clone therefore writes to m's page-sharing state and must not run
// concurrently with other use of m. Used to interpret ahead on a
// throwaway image and to compare final memory images of the interpreter
// and the VMM.
func (m *Memory) Clone() *Memory {
	for u, p := range m.pages {
		if p != nil {
			m.shared[u] = true
		}
	}
	return &Memory{
		pages:  append([]*page(nil), m.pages...),
		shared: append([]bool(nil), m.shared...),
		ro:     append([]bool(nil), m.ro...),
	}
}

// EqualData reports whether the two memory images hold identical bytes.
func (m *Memory) EqualData(o *Memory) bool {
	return len(m.pages) == len(o.pages) && m.FirstDifference(o) < 0
}

// FirstDifference returns the lowest address at which the two images
// differ, or -1 if they are identical. Images of different sizes differ
// at the end of the smaller one if their common prefix is identical.
func (m *Memory) FirstDifference(o *Memory) int64 {
	n := len(m.pages)
	if len(o.pages) < n {
		n = len(o.pages)
	}
	var zero page
	for u := 0; u < n; u++ {
		a, b := m.pages[u], o.pages[u]
		if a == b {
			continue
		}
		if a == nil {
			a = &zero
		}
		if b == nil {
			b = &zero
		}
		if *a == *b {
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				return int64(u)<<ProtectShift + int64(i)
			}
		}
	}
	if len(m.pages) != len(o.pages) {
		return int64(n) << ProtectShift
	}
	return -1
}

// SetReadOnly sets or clears the (non-architected) read-only bit of the
// protection unit containing addr.
func (m *Memory) SetReadOnly(addr uint32, ro bool) {
	u := addr >> ProtectShift
	if int(u) < len(m.ro) {
		m.ro[u] = ro
	}
}

// ReadOnly reports the read-only bit of the unit containing addr.
func (m *Memory) ReadOnly(addr uint32) bool {
	u := addr >> ProtectShift
	return int(u) < len(m.ro) && m.ro[u]
}

// InjectFault arranges for the next accesses at addr to raise
// FaultInjected. Pass clear=true to remove the injection.
func (m *Memory) InjectFault(addr uint32, clear bool) {
	if m.injected == nil {
		m.injected = make(map[uint32]bool)
	}
	if clear {
		delete(m.injected, addr)
	} else {
		m.injected[addr] = true
	}
}

func (m *Memory) check(addr uint32, size int, write bool) error {
	if uint64(addr)+uint64(size) > m.limit() {
		return &Fault{Addr: addr, Write: write, Kind: FaultOutOfBounds}
	}
	if m.injected != nil && m.injected[addr] {
		return &Fault{Addr: addr, Write: write, Kind: FaultInjected}
	}
	if m.FaultHook != nil && m.FaultHook(addr, size, write) {
		return &Fault{Addr: addr, Write: write, Kind: FaultInjected}
	}
	return nil
}

// CheckWrite reports the fault a store of the given size at addr would
// raise, without performing it. The VLIW executor validates every buffered
// store of a tree instruction before applying any of them, so a faulting
// VLIW leaves memory untouched and can be precisely rolled back.
func (m *Memory) CheckWrite(addr uint32, size int) error {
	return m.check(addr, size, true)
}

// CheckRead is CheckWrite for loads.
func (m *Memory) CheckRead(addr uint32, size int) error {
	return m.check(addr, size, false)
}

func (m *Memory) noteStore(addr uint32, size int) {
	if m.trackWrites {
		m.dirtyUnits[addr>>ProtectShift] = struct{}{}
		if size > 1 {
			m.dirtyUnits[(addr+uint32(size)-1)>>ProtectShift] = struct{}{}
		}
	}
	if m.OnProtectedStore != nil && m.ro[addr>>ProtectShift] {
		m.OnProtectedStore(addr, size)
	}
}

// TrackWrites enables (or disables) recording of the protection units
// touched by emulated stores, so a differential checker can compare only
// the memory that could have changed since its last synchronization point
// instead of hashing the whole image.
func (m *Memory) TrackWrites(on bool) {
	m.trackWrites = on
	if on && m.dirtyUnits == nil {
		m.dirtyUnits = make(map[uint32]struct{})
	}
}

// TakeDirtyUnits returns the protection units written since the last call
// (ascending) and clears the record.
func (m *Memory) TakeDirtyUnits() []uint32 {
	if len(m.dirtyUnits) == 0 {
		return nil
	}
	units := make([]uint32, 0, len(m.dirtyUnits))
	for u := range m.dirtyUnits {
		units = append(units, u)
	}
	for k := range m.dirtyUnits {
		delete(m.dirtyUnits, k)
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	return units
}

// writable returns unit u's page, ready for a store: a nil page is
// allocated and a shared page is copied, so the store is seen by this
// image only.
func (m *Memory) writable(u uint32) *page {
	p := m.pages[u]
	if p == nil {
		p = new(page)
		m.pages[u] = p
	} else if m.shared[u] {
		c := new(page)
		*c = *p
		p = c
		m.pages[u] = p
		m.shared[u] = false
	}
	return p
}

// loadSlow reads size bytes big-endian at addr (already bounds-checked),
// one byte at a time: the path of an access that straddles a page
// boundary.
func (m *Memory) loadSlow(addr uint32, size int) uint32 {
	var v uint32
	for i := uint32(0); i < uint32(size); i++ {
		a := addr + i
		if p := m.pages[a>>ProtectShift]; p != nil {
			v = v<<8 | uint32(p[a&(pageSize-1)])
		} else {
			v <<= 8
		}
	}
	return v
}

// storeSlow is loadSlow for stores: it writes the low size bytes of v
// big-endian at addr, one byte at a time.
func (m *Memory) storeSlow(addr uint32, size int, v uint32) {
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		m.writable(a >> ProtectShift)[a&(pageSize-1)] = byte(v >> (8 * (size - 1 - i)))
	}
}

// UnitBytes returns the raw contents of one protection unit (nil if the
// unit is out of range). Like Bytes, the result is read-only.
func (m *Memory) UnitBytes(unit uint32) []byte {
	return m.Bytes(unit<<ProtectShift, 1<<ProtectShift)
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint32) (uint32, error) {
	if err := m.check(addr, 1, false); err != nil {
		return 0, err
	}
	if p := m.pages[addr>>ProtectShift]; p != nil {
		return uint32(p[addr&(pageSize-1)]), nil
	}
	return 0, nil
}

// Read16 loads a big-endian halfword.
func (m *Memory) Read16(addr uint32) (uint32, error) {
	if err := m.check(addr, 2, false); err != nil {
		return 0, err
	}
	off := addr & (pageSize - 1)
	if off > pageSize-2 {
		return m.loadSlow(addr, 2), nil
	}
	if p := m.pages[addr>>ProtectShift]; p != nil {
		return uint32(binary.BigEndian.Uint16(p[off:])), nil
	}
	return 0, nil
}

// Read32 loads a big-endian word.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if err := m.check(addr, 4, false); err != nil {
		return 0, err
	}
	off := addr & (pageSize - 1)
	if off > pageSize-4 {
		return m.loadSlow(addr, 4), nil
	}
	if p := m.pages[addr>>ProtectShift]; p != nil {
		return binary.BigEndian.Uint32(p[off:]), nil
	}
	return 0, nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint32, v uint32) error {
	if err := m.check(addr, 1, true); err != nil {
		return err
	}
	m.writable(addr >> ProtectShift)[addr&(pageSize-1)] = byte(v)
	m.noteStore(addr, 1)
	return nil
}

// Write16 stores a big-endian halfword.
func (m *Memory) Write16(addr uint32, v uint32) error {
	if err := m.check(addr, 2, true); err != nil {
		return err
	}
	if off := addr & (pageSize - 1); off > pageSize-2 {
		m.storeSlow(addr, 2, v)
	} else {
		binary.BigEndian.PutUint16(m.writable(addr >> ProtectShift)[off:], uint16(v))
	}
	m.noteStore(addr, 2)
	return nil
}

// Write32 stores a big-endian word.
func (m *Memory) Write32(addr uint32, v uint32) error {
	if err := m.check(addr, 4, true); err != nil {
		return err
	}
	if off := addr & (pageSize - 1); off > pageSize-4 {
		m.storeSlow(addr, 4, v)
	} else {
		binary.BigEndian.PutUint32(m.writable(addr >> ProtectShift)[off:], v)
	}
	m.noteStore(addr, 4)
	return nil
}

// LoadImage copies raw bytes into memory at addr without triggering
// protection hooks (used by loaders, not by emulated stores).
func (m *Memory) LoadImage(addr uint32, b []byte) error {
	if uint64(addr)+uint64(len(b)) > m.limit() {
		return &Fault{Addr: addr, Write: true, Kind: FaultOutOfBounds}
	}
	for len(b) > 0 {
		off := addr & (pageSize - 1)
		n := copy(m.writable(addr >> ProtectShift)[off:], b)
		addr += uint32(n)
		b = b[n:]
	}
	return nil
}

// Bytes returns the n bytes at addr for inspection (nil if out of range).
// The result is read-only: it may alias a page of the image, so it must
// not be written, and it reflects later stores into that page only until
// the page is next copied. A range inside one resident unit is such an
// alias; an unwritten unit yields a fresh zero slice and a range across
// units a fresh copy.
func (m *Memory) Bytes(addr, n uint32) []byte {
	if uint64(addr)+uint64(n) > m.limit() {
		return nil
	}
	off := addr & (pageSize - 1)
	if uint64(off)+uint64(n) <= pageSize {
		p := m.pages[addr>>ProtectShift]
		if p == nil {
			return make([]byte, n)
		}
		return p[off : off+n : off+n]
	}
	b := make([]byte, n)
	for i := uint32(0); i < n; {
		a := addr + i
		o := a & (pageSize - 1)
		if p := m.pages[a>>ProtectShift]; p != nil {
			copy(b[i:], p[o:])
		}
		i += pageSize - o
	}
	return b
}
