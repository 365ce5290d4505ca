// Command pvsim regenerates the paper's tables and figures, and runs
// parameter-grid sweeps — one-shot or as an HTTP service.
//
// Usage:
//
//	pvsim [flags] list                 # show experiments, predictors, named configs
//	pvsim [flags] fig4 [fig6 ...]      # run specific experiments
//	pvsim [flags] all                  # run everything, in paper order
//	pvsim sweep [sweep flags]          # run a spec x workload x pvcache x seed grid
//	pvsim serve [serve flags]          # sweep service: submit/poll/fetch over HTTP
//	pvsim shard [shard flags]          # shard worker: runs job ranges for a serve coordinator
//	pvsim mc [mc flags]                # model-check the sweep pool and PVProxy state machine
//
// Flags (experiments):
//
//	-scale f    access-count multiplier (1.0 = default scale)
//	-seed n     workload generator seed
//	-format s   text | md | csv | json
//	-o file     write output to file instead of stdout
//	-v          log per-run progress to stderr
//	-p n        max parallel simulations (default GOMAXPROCS)
//
// `pvsim sweep -h`, `pvsim serve -h` and `pvsim mc -h` describe the
// subcommand flags; the
// sweep grid comes from -specs/-workloads/-pvcache/-seeds flags or a -grid
// JSON file, and sweep output at any -p is byte-identical to -p 1.
//
// list enumerates, besides the experiments, every predictor family in the
// pv registry and every registered named configuration — the same
// registry sim.Config resolves specs against, so what list prints is
// exactly what a config (or a sweep grid) can name.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pvsim/internal/experiments"
	"pvsim/internal/report"
	"pvsim/internal/workloads"
	"pvsim/pv"

	_ "pvsim/pv/predictors" // register the built-in predictor families
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pvsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	// Subcommands own their flags; dispatch before the experiment flags.
	if len(args) > 0 {
		switch args[0] {
		case "sweep":
			return runSweep(args[1:], stdout)
		case "serve":
			return runServe(args[1:], stdout)
		case "shard":
			return runShard(args[1:], stdout)
		case "mc":
			return runMC(args[1:], stdout)
		}
	}

	fs := flag.NewFlagSet("pvsim", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "access-count multiplier")
	seed := fs.Uint64("seed", 42, "workload generator seed")
	format := fs.String("format", "text", "output format: text|md|csv|json")
	outFile := fs.String("o", "", "output file (default stdout)")
	verbose := fs.Bool("v", false, "log per-run progress")
	parallel := fs.Int("p", 0, "max parallel simulations")
	compile := fs.Bool("compile", false, "pre-compile access streams into binary traces and replay them batched (bit-identical output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no experiment given; try 'pvsim list'")
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed, Parallel: *parallel, Compile: *compile}
	if *verbose {
		opts.Log = func(f string, a ...interface{}) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}

	out := stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	var ids []string
	for _, a := range fs.Args() {
		switch a {
		case "list":
			fmt.Fprintln(out, "experiments:")
			for _, e := range experiments.All() {
				fmt.Fprintf(out, "  %-8s %s\n", e.ID, e.Title)
			}
			fmt.Fprintf(out, "\nregistered predictors:\n  %s\n", strings.Join(pv.Names(), ", "))
			fmt.Fprintln(out, "\nnamed configs:")
			for _, name := range pv.SpecNames() {
				s, err := pv.SpecByName(name)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "  %-12s %s\n", name, describeSpec(s))
			}
			fmt.Fprintln(out, "\nnamed mixes (pvsim sweep -mixes; also per-core specs like DB2/DB2/Apache/Apache):")
			for _, m := range workloads.Mixes() {
				fmt.Fprintf(out, "  %-12s %s — %s\n", m.Name, m.Spec(), m.Desc)
			}
			return nil
		case "all":
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
		case "sweep", "serve", "shard", "mc":
			// Reached via `pvsim -p 4 sweep ...`: flag parsing stopped at the
			// subcommand word, so the leading flags never reached it. Point
			// at the right invocation instead of "unknown experiment".
			return fmt.Errorf("%q is a subcommand and must come first: use 'pvsim %s [flags]' (its flags go after it)", a, a)
		default:
			ids = append(ids, a)
		}
	}

	runner := experiments.NewRunner(opts)
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		doc := e.Run(runner)
		if err := emit(out, doc, *format); err != nil {
			return err
		}
	}
	return nil
}

// describeSpec renders one registry entry for the list output.
func describeSpec(s pv.Spec) string {
	if !s.Enabled() {
		return "no prefetcher (baseline)"
	}
	d := fmt.Sprintf("%s: %s, %s", s.Name, s.Label(), s.Mode)
	if s.Mode == pv.Virtualized {
		d += fmt.Sprintf(", %d-entry PVCache", s.PVCacheEntries)
	}
	return d
}

func emit(w io.Writer, doc *report.Doc, format string) error {
	switch format {
	case "text":
		_, err := io.WriteString(w, doc.Text())
		return err
	case "md":
		_, err := io.WriteString(w, doc.Markdown())
		return err
	case "csv":
		for _, s := range doc.Sections {
			if s.Table != nil {
				if _, err := fmt.Fprintf(w, "# %s %s\n%s", doc.ID, s.Heading, s.Table.CSV()); err != nil {
					return err
				}
			}
		}
		return nil
	case "json":
		b, err := doc.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	default:
		return fmt.Errorf("unknown format %q (want text|md|csv|json)", format)
	}
}
