// Command trojan-inject attacks a registered target with the Trojans the
// analysis itself discovers. It has two modes:
//
// Fire drill (default): run the Achilles analysis, start a live concrete
// server, and inject every discovered Trojan message into it — the paper's
// fire-drill scenario (§4.1).
//
//	trojan-inject [-target fsp] [-addr 127.0.0.1:0]
//
// Mutation campaign (-mutate): generate semantically mutated variants of
// the targets' server models (weakened guards, dropped validation,
// swapped verdicts, …), audit originals and mutants as ONE incremental
// campaign, and measure the detector's recall — which injected bugs
// surface as new Trojan classes — plus its precision on the unmutated
// ground truth.
//
//	trojan-inject -mutate [-targets fsp,kv,raft] [-max N] [-ops a,b] \
//	    [-j N] [-mode optimized] [-out DIR [-force]] [-baseline DIR] \
//	    [-report FILE]
//
// The campaign exits 0 when every hand-seeded ground-truth Trojan was
// detected, 1 when one was missed (a false negative on a known bug) or the
// campaign failed, and 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/mutate"
	_ "achilles/internal/protocols"
	"achilles/internal/protocols/registry"
)

func main() {
	mutateMode := flag.Bool("mutate", false, "run a mutation-recall campaign instead of a live fire drill")
	// Fire-drill flags.
	targetName := flag.String("target", "fsp", "registered target to fire-drill")
	addr := flag.String("addr", "127.0.0.1:0", "UDP address for the live server")
	// Mutation-campaign flags.
	targets := flag.String("targets", strings.Join(mutate.DefaultTargets, ","), "comma-separated base targets to mutate")
	max := flag.Int("max", 0, "cap generated mutants per target, sampled across operators (0 = every site)")
	ops := flag.String("ops", "", "comma-separated mutation operators (default all: "+strings.Join(mutate.OperatorNames(), ", ")+")")
	jobs := flag.Int("j", runtime.NumCPU(), "global parallelism budget across the campaign")
	mode := flag.String("mode", "optimized", "analysis mode for every job")
	out := flag.String("out", "", "write the campaign bundle to this directory")
	force := flag.Bool("force", false, "replace an existing bundle at -out")
	baseline := flag.String("baseline", "", "previous bundle dir: reuse reports for jobs whose input fingerprint is unchanged")
	report := flag.String("report", "", "write the machine-readable recall report (JSON) to this file")
	flag.Parse()

	if *mutateMode {
		os.Exit(runMutate(*targets, *ops, *mode, *out, *baseline, *report, *max, *jobs, *force))
	}

	if _, ok := registry.Lookup(*targetName); !ok {
		fmt.Fprintf(os.Stderr, "trojan-inject: unknown target %q (registered: %s)\n",
			*targetName, strings.Join(registry.Names(), ", "))
		flag.Usage()
		os.Exit(2)
	}
	drill, ok := registry.FireDrill(*targetName)
	if !ok {
		fmt.Fprintf(os.Stderr, "trojan-inject: target %q has no live fire drill (available: %s)\n",
			*targetName, strings.Join(registry.FireDrillNames(), ", "))
		flag.Usage()
		os.Exit(2)
	}
	if err := drill(*addr, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trojan-inject:", err)
		os.Exit(1)
	}
}

// runMutate drives one mutation-recall campaign and returns the exit code.
func runMutate(targets, ops, modeArg, out, baselineDir, reportFile string, max, jobs int, force bool) int {
	if jobs < 1 {
		fmt.Fprintf(os.Stderr, "trojan-inject: invalid -j %d (must be >= 1)\n", jobs)
		return 2
	}
	if max < 0 {
		fmt.Fprintf(os.Stderr, "trojan-inject: invalid -max %d (must be >= 0)\n", max)
		return 2
	}
	mode, err := core.ParseMode(modeArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trojan-inject:", err)
		return 2
	}
	opts := mutate.CampaignOptions{
		Targets:      splitList(targets),
		Mode:         mode,
		Jobs:         jobs,
		MaxPerTarget: max,
		Operators:    splitList(ops),
	}
	for _, name := range opts.Targets {
		if _, ok := registry.Lookup(name); !ok {
			fmt.Fprintf(os.Stderr, "trojan-inject: unknown target %q (registered: %s)\n",
				name, strings.Join(registry.Names(), ", "))
			return 2
		}
	}
	known := mutate.OperatorNames()
	for _, op := range opts.Operators {
		found := false
		for _, k := range known {
			found = found || op == k
		}
		if !found {
			fmt.Fprintf(os.Stderr, "trojan-inject: unknown operator %q (catalog: %s)\n",
				op, strings.Join(known, ", "))
			return 2
		}
	}
	if baselineDir != "" {
		base, err := campaign.Read(baselineDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trojan-inject: -baseline:", err)
			return 2
		}
		opts.Baseline = base
		opts.BaselineDir = baselineDir
	}
	if out != "" && !force {
		// Pre-flight the clobber check before spending the campaign.
		if entries, err := os.ReadDir(out); err == nil && len(entries) > 0 {
			fmt.Fprintf(os.Stderr, "trojan-inject: %v: %s is not empty (pass -force to replace)\n",
				campaign.ErrBundleExists, out)
			return 2
		}
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	res, runErr := mutate.RunCtx(ctx, opts)
	stopSignals()
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fmt.Fprintln(os.Stderr, "trojan-inject:", runErr)
		return 1
	}
	if out != "" {
		werr := res.Bundle.Write(out)
		if force {
			werr = res.Bundle.Overwrite(out)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "trojan-inject:", werr)
			return 1
		}
		fmt.Printf("bundle: %s\n", out)
	}
	if reportFile != "" {
		data, err := json.MarshalIndent(res.Report, "", "  ")
		if err == nil {
			err = os.WriteFile(reportFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trojan-inject:", err)
			return 1
		}
		fmt.Printf("recall report: %s\n", reportFile)
	}

	for _, name := range opts.Targets {
		if st, ok := res.GenStats[name]; ok {
			fmt.Printf("mutants %-6s %3d selected / %3d sites (%d identical, %d duplicate, %d compile-failed, %d over cap)\n",
				name, st.Kept-st.Capped, st.Sites, st.Identical, st.Duplicate, st.CompileFailed, st.Capped)
		}
	}
	if res.Report.CachedJobs > 0 {
		fmt.Printf("cached %d/%d job(s) from baseline %s\n",
			res.Report.CachedJobs, len(res.Bundle.Manifest.Runs), baselineDir)
	}
	fmt.Print(res.Report.Render())

	if errors.Is(runErr, context.Canceled) {
		fmt.Fprintln(os.Stderr, "trojan-inject: campaign interrupted; partial results above")
		return 1
	}
	if fn := res.Report.FalseNegatives(); len(fn) > 0 {
		fmt.Fprintf(os.Stderr, "trojan-inject: seeded ground-truth Trojans MISSED on: %s\n", strings.Join(fn, ", "))
		return 1
	}
	return 0
}

func splitList(arg string) []string {
	var out []string
	for _, f := range strings.Split(arg, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
