package vmm

// Tests for the asynchronous translation pipeline (async.go): the -race
// soak asserting async execution is observably identical to synchronous
// translation, the staleness protocol (SMC, explicit invalidation, and
// silent byte changes must all suppress an in-flight publish), and queue
// backpressure. `make ci` runs this file's soak under -race.

import (
	"runtime"
	"testing"
	"time"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/workload"
)

// runWorkloadVMM executes one workload to completion and returns the
// machine (closed) and its output.
func runWorkloadVMM(t *testing.T, w workload.Workload, scale int, opt Options) (*Machine, []byte) {
	t.Helper()
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	env := &interp.Env{In: w.Input(scale)}
	m := New(mm, env, opt)
	defer m.Close()
	if err := m.Run(prog.Entry(), 200_000_000); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return m, env.Out
}

// TestAsyncSoak runs every workload synchronously and then under several
// async pipeline shapes, asserting the output stream and the final
// architected state are identical no matter when (or whether) worker
// translations land. The golden wall pins the synchronous machine; this
// soak pins async against it. Run under -race it is also the data-race
// check on the machine/worker seam.
func TestAsyncSoak(t *testing.T) {
	type shape struct {
		name                string
		workers, depth, hot int
	}
	shapes := []shape{
		{"w1d1h1", 1, 1, 1}, // maximal contention: everything queues
		{"w2d8h2", 2, 8, 2}, // defaults
		{"w4d2h3", 4, 2, 3}, // wide pool, tight queue, late tiering
	}
	var published uint64
	for _, w := range workload.All() {
		sync, syncOut := runWorkloadVMM(t, w, 4, DefaultOptions())
		for _, s := range shapes {
			opt := DefaultOptions()
			opt.AsyncTranslate = true
			opt.AsyncWorkers = s.workers
			opt.AsyncQueueDepth = s.depth
			opt.HotThreshold = s.hot
			as, asyncOut := runWorkloadVMM(t, w, 4, opt)
			if string(asyncOut) != string(syncOut) {
				t.Errorf("%s/%s: async output differs from sync (%d vs %d bytes)",
					w.Name, s.name, len(asyncOut), len(syncOut))
			}
			if as.St != sync.St {
				t.Errorf("%s/%s: final architected state differs\nasync %+v\nsync  %+v",
					w.Name, s.name, as.St, sync.St)
			}
			if as.Stats.BaseInsts() != sync.Stats.BaseInsts() {
				t.Errorf("%s/%s: completed insts differ: async %d sync %d",
					w.Name, s.name, as.Stats.BaseInsts(), sync.Stats.BaseInsts())
			}
			published += as.Stats.AsyncPublishes
		}
	}
	if published == 0 {
		t.Fatal("no async publish happened across the whole soak; pipeline never engaged")
	}
}

// asyncLoopMachine builds a machine over an infinite counting loop with a
// single held worker, steps it until the loop page has been enqueued, and
// returns it with the translation still in flight.
func asyncLoopMachine(t *testing.T) (*Machine, uint32) {
	t.Helper()
	return asyncLoopMachineTel(t, nil)
}

// asyncLoopMachineTel is asyncLoopMachine with an optional telemetry
// instance attached before the first step (the span tests need the hooks
// live from the very first dispatch).
func asyncLoopMachineTel(t *testing.T, tel *telemetry.Telemetry) (*Machine, uint32) {
	t.Helper()
	prog, err := asm.Assemble("_start:\taddi r1, r1, 1\n\tb _start\n")
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 16)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.AsyncQueueDepth = 1
	opt.HotThreshold = 1
	m := New(mm, &interp.Env{}, opt)
	if tel != nil {
		m.AttachTelemetry(tel)
	}
	// Installed before the first enqueue: the job-channel send orders this
	// write before the worker's read.
	m.pipe.testHold = make(chan struct{}, 16)
	m.Start(prog.Entry(), 0)
	for i := 0; i < 100 && m.Stats.AsyncEnqueues == 0; i++ {
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.AsyncEnqueues == 0 {
		t.Fatal("loop page never enqueued")
	}
	return m, prog.Entry()
}

// stepUntil steps the machine until cond holds (or fails the test). The
// short sleep between steps gives a released worker time to deliver its
// result; the condition itself is always checked on the machine side.
func stepUntil(t *testing.T, m *Machine, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	t.Fatalf("condition never reached: %s", what)
}

// TestAsyncStaleDropOnSMC pins the epoch protocol: a store into the page
// while its translation is in flight must drop the result, never publish
// it (ISSUE 4's race/invalidate guarantee).
func TestAsyncStaleDropOnSMC(t *testing.T) {
	m, entry := asyncLoopMachine(t)
	defer m.Close()
	m.InjectSMC(entry)
	if _, err := m.StepGroup(); err != nil { // drain the dirty page: epoch bump
		t.Fatal(err)
	}
	m.pipe.testHold <- struct{}{} // let the worker finish the stale job
	stepUntil(t, m, "stale result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	if m.Stats.AsyncPublishes != 0 {
		t.Fatalf("stale translation was published (publishes=%d)", m.Stats.AsyncPublishes)
	}
	if m.St.GPR[1] == 0 {
		t.Fatal("machine stopped making interpretive progress")
	}
}

// TestAsyncStaleDropOnInvalidate covers the cast-out/TLB-invalidate form
// of the same race: an explicit InvalidatePage of a page with no published
// translation must still poison the in-flight result.
func TestAsyncStaleDropOnInvalidate(t *testing.T) {
	m, entry := asyncLoopMachine(t)
	defer m.Close()
	m.InvalidatePage(entry)
	m.pipe.testHold <- struct{}{}
	stepUntil(t, m, "stale result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	if m.Stats.AsyncPublishes != 0 {
		t.Fatalf("stale translation was published (publishes=%d)", m.Stats.AsyncPublishes)
	}
}

// TestAsyncStaleDropOnSilentRewrite covers the hole epochs alone cannot
// see: a write into a page that was never translated raises no
// code-modification interrupt (the page is not protected yet), so only
// the publish-time digest check can catch it.
func TestAsyncStaleDropOnSilentRewrite(t *testing.T) {
	m, _ := asyncLoopMachine(t)
	defer m.Close()
	// Rewrite the loop body behind the VMM's back: same shape, different
	// increment. LoadImage bypasses the protected-store hook, so no dirty
	// bit and no epoch bump — exactly a DMA-style silent change.
	patched, err := asm.Assemble("_start:\taddi r1, r1, 2\n\tb _start\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := patched.Load(m.Mem); err != nil {
		t.Fatal(err)
	}
	m.pipe.testHold <- struct{}{}
	stepUntil(t, m, "stale result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	if m.Stats.AsyncPublishes != 0 {
		t.Fatalf("digest-stale translation was published (publishes=%d)", m.Stats.AsyncPublishes)
	}
}

// TestAsyncBackpressure pins the bounded-queue property: with one held
// worker and a depth-1 queue, a third hot page must be pushed back
// (AsyncQueueFull), not block the machine or grow the queue; once the
// worker is released everything still gets translated and published.
func TestAsyncBackpressure(t *testing.T) {
	src := "_start:\tbl f1\n\tbl f2\n\tbl f3\n\taddi r1, r1, 1\n\tb _start\n" +
		"\t.org 0x11000\nf1:\tblr\n" +
		"\t.org 0x12000\nf2:\tblr\n" +
		"\t.org 0x13000\nf3:\tblr\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 17)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.AsyncQueueDepth = 1
	opt.HotThreshold = 1
	// The loop body is 8 instructions; a budget coprime with it makes the
	// interpreter stop (and dispatch) at a different loop position each
	// StepGroup, so every page gets counted hot while the worker is held.
	opt.InterpBudget = 3
	m := New(mm, &interp.Env{}, opt)
	defer m.Close()
	m.pipe.testHold = make(chan struct{}, 64)
	m.Start(prog.Entry(), 0)
	stepUntil(t, m, "queue pushed back", func() bool {
		return m.Stats.AsyncQueueFull > 0
	})
	if got := len(m.pipe.jobs); got > 1 {
		t.Fatalf("queue grew past its bound: %d jobs", got)
	}
	// Release the worker and let the backlog drain: the pushed-back pages
	// retry on later dispatches and everything publishes.
	for i := 0; i < 64; i++ {
		m.pipe.testHold <- struct{}{}
	}
	stepUntil(t, m, "all four pages published", func() bool {
		return m.Stats.AsyncPublishes >= 4
	})
	if m.Stats.StaleTranslationsDropped != 0 {
		t.Fatalf("unexpected stale drops: %d", m.Stats.StaleTranslationsDropped)
	}
}

// TestAsyncWarmupYieldsToWorkers pins that the machine goroutine gives a
// queued worker the CPU while it interprets the page the worker is
// translating. On one CPU the worker otherwise runs only when the
// scheduler preempts the machine, about every 10 ms, and the hot loop
// spends that long interpreted.
func TestAsyncWarmupYieldsToWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog, err := asm.Assemble(`
_start:	lis r4, 16
loop:	addi r3, r3, 1
	subi r4, r4, 1
	cmpwi r4, 0
	bne loop
	li r0, 0
	sc
`)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 16)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	m := New(mm, &interp.Env{}, opt)
	defer m.Close()
	if err := m.Run(prog.Entry(), 10_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats.AsyncPublishes == 0 {
		t.Fatal("the loop page was never published")
	}
	// 16<<16 iterations of 4 instructions: about four million retired.
	// Yielding, the page is interpreted for the hot-threshold dispatches
	// and little more; waiting for preemption, for 10 ms (about 0.8% of
	// the run under -race, 7-11% without).
	total := m.Stats.BaseInsts()
	if frac := float64(m.Stats.InterpInsts) / float64(total); frac > 0.001 {
		t.Fatalf("%d of %d instructions (%.1f%%) interpreted while the worker waited for the CPU",
			m.Stats.InterpInsts, total, 100*frac)
	}
}

// TestAsyncOffByDefault pins the determinism guard: the default machine —
// the one the golden and lockstep walls run — has no pipeline.
func TestAsyncOffByDefault(t *testing.T) {
	m := New(mem.New(1<<16), &interp.Env{}, DefaultOptions())
	if m.pipe != nil {
		t.Fatal("default machine has an async pipeline")
	}
	// Interpretive (trace-guided) mode is inherently inline: asking for
	// async there must be ignored, not half-engaged.
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.Interpretive = true
	if m2 := New(mem.New(1<<16), &interp.Env{}, opt); m2.pipe != nil {
		t.Fatal("interpretive machine built an async pipeline")
	}
}
