// daisy-run executes a base-architecture program under the DAISY machine
// (or the reference interpreter) and prints execution statistics.
//
// Usage:
//
//	daisy-run [flags] prog.s          # assemble and run a source file
//	daisy-run [flags] -workload wc    # run a built-in benchmark
//
// With -precompile (and -txcache DIR), the whole binary is pre-translated
// into the persistent cache on a parallel worker pool and nothing is
// executed — the fleet warm-up pass.
//
// The shared observability flags (cmd/internal/obs) watch the run:
//
//	daisy-run -workload wc -top -snapshot-every 500ms   # live top screen
//	daisy-run -workload wc -profile wc.pb -sample 1 -annotate 2
//
// -annotate N prints the guest profile's N hottest pages side by side:
// each base instruction next to the VLIW parcels scheduled from it.
//
// Flags select the machine configuration, translation page size, input,
// and whether to cross-check against the interpreter.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"

	"daisy"
	"daisy/cmd/internal/obs"
	"daisy/internal/vliw"
)

func main() {
	opt := daisy.DefaultOptions()
	var (
		configName = flag.String("config", "24-16-8-7", "machine configuration (see -list-configs)")
		listCfg    = flag.Bool("list-configs", false, "list machine configurations and exit")
		pageSize   = flag.Uint("pagesize", 4096, "translation page size in bytes")
		wl         = flag.String("workload", "", "run a built-in benchmark instead of a file")
		scale      = flag.Int("scale", 1, "benchmark input scale")
		inputFile  = flag.String("input", "", "file providing the program's input stream")
		useInterp  = flag.Bool("interp", false, "run on the reference interpreter instead")
		check      = flag.Bool("check", false, "run both engines and compare outputs")
		dump       = flag.Bool("dump", false, "dump the entry group's tree VLIWs before running")
		memMB      = flag.Uint("mem", 8, "physical memory size in MiB")
		maxInsts   = flag.Uint64("max", 0, "instruction budget (0 = unlimited)")
		cacheDir   = flag.String("txcache", "", "persistent translation cache directory (created if missing)")
		precompile = flag.Bool("precompile", false, "pre-translate the whole binary into -txcache, then exit without running")
		annotate   = flag.Int("annotate", 0, "with -profile: print the N hottest pages' annotated disassembly to stderr")
	)
	flag.BoolVar(&opt.AsyncTranslate, "async", false, "translate asynchronously on a worker pool (hot pages only)")
	flag.BoolVar(&opt.Tier2, "tier2", false, "retranslate hot stable pages at tier-2 (optimizing) effort")
	flag.IntVar(&opt.Tier2Threshold, "tier2-threshold", 0, "dispatches before a page is tier-2 eligible (0: default 8)")
	flag.Uint64Var(&opt.Tier2Stability, "tier2-stability", 0, "instructions a page must stay unmodified before tier-2 (0: default)")
	ob := obs.Register()
	flag.Parse()

	if *listCfg {
		for _, c := range daisy.Configs {
			fmt.Printf("%s\t(issue %d, ALU %d, mem %d, branch %d)\n",
				c.Name, c.Issue, c.ALU, c.Mem, c.Branch)
		}
		return
	}
	if err := run(opt, *configName, uint32(*pageSize), *cacheDir, *wl, *scale, *inputFile,
		*useInterp, *check, *dump, uint32(*memMB)<<20, *maxInsts, *precompile, *annotate, ob, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "daisy-run:", err)
		os.Exit(1)
	}
}

func run(opt daisy.MachineOptions, configName string, pageSize uint32, cacheDir string,
	wl string, scale int, inputFile string, useInterp, check, dump bool, memSize uint32,
	maxInsts uint64, precompile bool, annotate int, ob *obs.Flags, args []string) error {

	cfg, err := vliw.ConfigByName(configName)
	if err != nil {
		return err
	}
	opt.Trans.Config = cfg
	opt.Trans.PageSize = pageSize
	if cacheDir != "" {
		if opt.Cache, err = daisy.OpenTranslationCache(cacheDir); err != nil {
			return err
		}
	}
	if annotate > 0 && ob.ProfileFile == "" {
		return errors.New("-annotate needs -profile FILE")
	}

	var prog *daisy.Program
	var input []byte
	switch {
	case wl != "":
		w, err := daisy.WorkloadByName(wl)
		if err != nil {
			return err
		}
		if prog, err = w.Build(); err != nil {
			return err
		}
		input = w.Input(scale)
	case len(args) == 1:
		src, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		if prog, err = daisy.Assemble(string(src)); err != nil {
			return err
		}
	default:
		return errors.New("need a source file or -workload NAME")
	}
	if inputFile != "" {
		if input, err = os.ReadFile(inputFile); err != nil {
			return err
		}
	}

	if dump {
		m := daisy.NewMemory(memSize)
		if err := prog.Load(m); err != nil {
			return err
		}
		g, err := daisy.Translate(m, opt.Trans, prog.Entry())
		if err != nil {
			return err
		}
		fmt.Print(g.Dump())
	}

	if precompile {
		if opt.Cache == nil {
			return errors.New("-precompile needs -txcache DIR (the pass has no sink without one)")
		}
		m := daisy.NewMemory(memSize)
		if err := prog.Load(m); err != nil {
			return err
		}
		ma, err := daisy.NewMachine(m, &daisy.Env{}, opt)
		if err != nil {
			return err
		}
		defer ma.Close()
		rep, err := daisy.Precompile(ma, prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[daisy] %v (%s)\n", rep, opt.Cache.Dir())
		return nil
	}

	var interpOut []byte
	var interpInsts uint64
	if useInterp || check {
		m := daisy.NewMemory(memSize)
		if err := prog.Load(m); err != nil {
			return err
		}
		env := &daisy.Env{In: input}
		ip := daisy.NewInterpreter(m, env, prog.Entry())
		if err := ip.Run(maxInsts); !errors.Is(err, daisy.ErrHalt) {
			return fmt.Errorf("interpreter: %w", err)
		}
		interpOut, interpInsts = env.Out, ip.InstCount
		if useInterp {
			os.Stdout.Write(env.Out)
			fmt.Fprintf(os.Stderr, "[interp] %d instructions\n", ip.InstCount)
			return nil
		}
	}

	m := daisy.NewMemory(memSize)
	if err := prog.Load(m); err != nil {
		return err
	}
	env := &daisy.Env{In: input}
	ma, err := daisy.NewMachine(m, env, opt)
	if err != nil {
		return err
	}
	defer ma.Close()
	tel, finish, err := ob.Setup()
	if err != nil {
		return err
	}
	if tel != nil {
		ma.AttachTelemetry(tel)
	}
	runErr := ma.Run(prog.Entry(), maxInsts)
	ma.SyncTelemetry()
	if ferr := finish(); ferr != nil && runErr == nil {
		runErr = ferr
	}
	if runErr != nil {
		return runErr
	}
	os.Stdout.Write(env.Out)
	if annotate > 0 {
		prof := tel.Profile()
		for i, ps := range prof.Pages() {
			if i == annotate {
				break
			}
			fmt.Fprint(os.Stderr, ma.AnnotatedDisassembly(prof, ps.Base))
		}
	}

	s := &ma.Stats
	fmt.Fprintf(os.Stderr, "[daisy] %d base instructions in %d VLIWs (ILP %.2f)\n",
		s.BaseInsts(), s.Exec.VLIWs, s.InfILP())
	fmt.Fprintf(os.Stderr, "[daisy] pages %d, groups %d, interp insts %d, aliases %d, cross-page %d/%d/%d (direct/lr/ctr)\n",
		s.PagesBuilt, s.GroupsBuilt, s.InterpInsts, s.Exec.Aliases,
		s.CrossDirect, s.CrossLR, s.CrossCTR)
	if opt.AsyncTranslate {
		fmt.Fprintf(os.Stderr, "[daisy] async: enqueued %d, published %d, pushed back %d, stale dropped %d\n",
			s.AsyncEnqueues, s.AsyncPublishes, s.AsyncQueueFull, s.StaleTranslationsDropped)
	}
	if opt.Tier2 {
		fmt.Fprintf(os.Stderr, "[daisy] tier2: promoted %d, dispatches %d, deopts %d, demoted %d\n",
			s.Tier2Promotions, s.Tier2Dispatches, s.Tier2Deopts, s.Tier2Demotions)
	}
	if opt.Cache != nil {
		fmt.Fprintf(os.Stderr, "[daisy] txcache: hits %d (%d hot), misses %d, stores %d (%s)\n",
			s.CacheHits, s.CacheHotHits, s.CacheMisses, s.CacheStores, opt.Cache.Dir())
	}

	if check {
		if !bytes.Equal(interpOut, env.Out) {
			return errors.New("output differs from the interpreter")
		}
		if interpInsts != s.BaseInsts() {
			return fmt.Errorf("instruction counts differ: interp %d, daisy %d",
				interpInsts, s.BaseInsts())
		}
		fmt.Fprintln(os.Stderr, "[check] identical output and instruction counts")
	}
	return nil
}
