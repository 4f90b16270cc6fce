// Command achilles-audit runs fleet-wide Trojan audits and manages the
// resulting bundles — the operational face of the campaign engine
// (internal/campaign).
//
// Usage:
//
//	achilles-audit run  [-out DIR] [-force] [-targets a,b|all] [-modes m1,m2|all] [-j N]
//	                    [-baseline DIR] [-golden DIR] [-timeout DURATION]
//	                    [-workers N] [-worker-bin PATH]
//	achilles-audit diff OLD_BUNDLE NEW_BUNDLE
//	achilles-audit ls   [ROOT]
//	achilles-audit hash BUNDLE
//
// "run" audits every selected registry target in every selected mode under
// one global -j budget and writes a versioned audit bundle (manifest.json +
// one JSONL Trojan report stream per job). With -golden it additionally
// cross-checks each optimized-mode job's class lines against the golden
// corpus (<golden>/<target>.golden) and exits 1 on divergence — the CI
// regression gate; a run truncated by a MaxStates budget counts as
// divergence too, because its class set is partial.
//
// -baseline DIR makes a repeated audit of an unchanged fleet near-free: it
// reuses reports from a previous bundle for every job whose input
// fingerprint (NL model sources + engine/solver/campaign revisions + mode)
// matches a clean baseline entry; reused entries are marked "cached" in the
// manifest. Changed, new, failed and truncated jobs re-run.
//
// -out refuses a directory that already contains files unless -force is
// given (which replaces the previous bundle); without -out a collision-proof
// audits/run-<timestamp> directory is created.
//
// A campaign is cancellable: -timeout DURATION maps to a context deadline
// and Ctrl-C (SIGINT) cancels. Either way the partial bundle is still
// written — jobs the cancellation caught carry an "interrupted" error in
// the manifest, the manifest itself is flagged interrupted, and the process
// exits with code 3 (distinct from 1, "audit found problems"). Interrupted
// bundles are refused as -baseline and by the -golden gate: a campaign that
// did not finish is evidence, not ground truth. The manifest is written
// atomically (temp file + rename) and last, so a bundle killed mid-write is
// unreadable rather than silently partial.
//
// With -workers N (N >= 1) the campaign runs distributed: N achilles-worker
// subprocesses are spawned (-worker-bin overrides the binary, which is
// otherwise looked up next to this executable and then on PATH) and jobs are
// handed to whichever worker is free, with crash requeue
// (internal/dispatch); each worker solves on its own solver. Because job
// results are deterministic, the bundle is ContentHash-identical to an
// in-process run at every worker count. The default (0) runs in-process.
//
// "diff" compares two bundles class-by-class and exits 0 when identical,
// 1 when Trojan classes appeared, disappeared or changed, 2 on usage or
// I/O errors.
//
// "ls" lists the bundles under a root directory (default "audits") with
// their creation time, job count, class totals, a short form of their
// content hash, and an "int" marker on interrupted bundles.
//
// "hash" prints one bundle's full content hash — the digest of its stable
// content (job outcomes and report streams, not timings or timestamps) that
// CI uses to assert distributed and single-process runs agree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/dispatch"
	_ "achilles/internal/protocols"
	"achilles/internal/protocols/registry"
)

const defaultRoot = "audits"

func usage(w *os.File) {
	fmt.Fprintln(w, "usage:")
	fmt.Fprintln(w, "  achilles-audit run  [-out DIR] [-force] [-targets a,b|all] [-modes m1,m2|all] [-j N]")
	fmt.Fprintln(w, "                      [-baseline DIR] [-golden DIR] [-timeout DURATION]")
	fmt.Fprintln(w, "                      [-workers N] [-worker-bin PATH]")
	fmt.Fprintln(w, "  achilles-audit diff OLD_BUNDLE NEW_BUNDLE")
	fmt.Fprintln(w, "  achilles-audit ls   [ROOT]")
	fmt.Fprintln(w, "  achilles-audit hash BUNDLE")
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "ls":
		cmdLs(os.Args[2:])
	case "hash":
		cmdHash(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "achilles-audit: unknown subcommand %q\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
}

// splitList tokenises a comma-separated flag value: tokens are trimmed and
// empty ones (doubled, leading or trailing commas, e.g. "fsp,,kv" or
// "fsp,") are dropped instead of being passed downstream, where they would
// surface as a baffling `unknown target ""` error.
func splitList(arg string) []string {
	var out []string
	for _, tok := range strings.Split(arg, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// parseModes expands a comma-separated -modes value; "all" selects every
// analysis mode. A value that contains no usable token (e.g. "," or "  ")
// is an error: silently analysing in the default mode would not be what the
// user asked for.
func parseModes(arg string) ([]core.Mode, error) {
	if arg == "all" {
		return []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori}, nil
	}
	var out []core.Mode
	for _, name := range splitList(arg) {
		m, err := core.ParseMode(name)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-modes %q selects no analysis mode", arg)
	}
	return out, nil
}

// parseTargets expands a comma-separated -targets value; "all" or the empty
// string selects every registered target. A non-empty value that contains
// no usable token (e.g. "," ) is an error rather than a silent "all".
func parseTargets(arg string) ([]string, error) {
	if arg == "" || arg == "all" {
		return nil, nil
	}
	out := splitList(arg)
	if len(out) == 0 {
		return nil, fmt.Errorf("-targets %q selects no target", arg)
	}
	return out, nil
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("achilles-audit run", flag.ExitOnError)
	out := fs.String("out", "", "bundle directory (default "+defaultRoot+"/run-<timestamp>)")
	force := fs.Bool("force", false, "replace an existing bundle at -out (removes its manifest and report streams first)")
	targets := fs.String("targets", "all", "comma-separated registry targets, or all")
	modes := fs.String("modes", "optimized", "comma-separated analysis modes, or all")
	jobs := fs.Int("j", runtime.NumCPU(), "global parallelism budget across the campaign")
	baseline := fs.String("baseline", "", "previous bundle dir: reuse reports for jobs whose input fingerprint is unchanged")
	golden := fs.String("golden", "", "golden corpus dir to cross-check optimized-mode class sets against")
	timeout := fs.Duration("timeout", 0, "abort the campaign after this long (0 = no deadline); the partial bundle exits 3")
	workers := fs.Int("workers", 0, "run the campaign on N achilles-worker subprocesses (0 = in-process)")
	workerBin := fs.String("worker-bin", "", "worker binary for -workers (default: achilles-worker next to this executable, then PATH)")
	fs.Parse(args)

	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "achilles-audit: invalid -j %d (must be >= 1)\n", *jobs)
		fs.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "achilles-audit: invalid -workers %d (must be >= 0)\n", *workers)
		fs.Usage()
		os.Exit(2)
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "achilles-audit: invalid -timeout %v (must be >= 0)\n", *timeout)
		fs.Usage()
		os.Exit(2)
	}
	modeList, err := parseModes(*modes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "achilles-audit:", err)
		fs.Usage()
		os.Exit(2)
	}
	targetList, err := parseTargets(*targets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "achilles-audit:", err)
		fs.Usage()
		os.Exit(2)
	}
	opts := campaign.Options{
		Targets: targetList,
		Modes:   modeList,
		Jobs:    *jobs,
	}
	if _, err := campaign.Plan(opts); err != nil {
		fmt.Fprintln(os.Stderr, "achilles-audit:", err)
		fmt.Fprintf(os.Stderr, "registered targets: %s\n", strings.Join(registry.Names(), ", "))
		os.Exit(2)
	}
	if *baseline != "" {
		base, err := campaign.Read(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "achilles-audit: -baseline:", err)
			os.Exit(2)
		}
		if base.Manifest.Interrupted {
			fmt.Fprintf(os.Stderr, "achilles-audit: baseline %s is from an interrupted campaign — no jobs will be reused\n", *baseline)
		}
		opts.Baseline = base
		opts.BaselineDir = *baseline
	}
	var coord *dispatch.Coordinator
	if *workers > 0 {
		bin, err := findWorkerBin(*workerBin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "achilles-audit:", err)
			os.Exit(2)
		}
		coord, err = dispatch.Start(dispatch.Config{
			Workers: *workers,
			Command: []string{bin},
			Stderr:  os.Stderr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "achilles-audit:", err)
			os.Exit(1)
		}
		opts.Executor = coord
		fmt.Printf("distributed: %d worker(s) running %s\n", *workers, bin)
	}
	dir := *out
	if dir == "" {
		dir, err = claimRunDir(defaultRoot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "achilles-audit:", err)
			os.Exit(1)
		}
	} else if !*force {
		// Pre-flight the clobber check: refusing AFTER the audit would
		// throw away the whole campaign's work over a one-syscall mistake.
		if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
			fmt.Fprintf(os.Stderr, "achilles-audit: %v: %s is not empty\n", campaign.ErrBundleExists, dir)
			fmt.Fprintln(os.Stderr, "achilles-audit: pass -force to replace the existing bundle")
			os.Exit(1)
		}
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	bundle, runErr := campaign.RunCtx(ctx, opts)
	// Restore default signal handling now: the campaign is done, and a
	// second Ctrl-C must be able to kill the process during the bundle
	// flush below (the atomic manifest write makes that safe).
	stopSignals()
	if coord != nil {
		// Tear the fleet down before anything else, so a cancelled campaign
		// leaves no worker processes running.
		coord.Close()
	}
	interrupted := errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)
	if runErr != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "achilles-audit:", runErr)
		os.Exit(1)
	}
	if *force {
		err = bundle.Overwrite(dir)
	} else {
		err = bundle.Write(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "achilles-audit:", err)
		if errors.Is(err, campaign.ErrBundleExists) {
			fmt.Fprintln(os.Stderr, "achilles-audit: pass -force to replace the existing bundle")
		}
		os.Exit(1)
	}

	failed, truncated, total := 0, 0, 0
	for _, rm := range bundle.Manifest.Runs {
		if rm.Error != "" {
			failed++
			fmt.Printf("  %-36s FAILED: %s\n", rm.Key(), rm.Error)
			continue
		}
		total += rm.Classes
		note := ""
		if rm.Cached {
			note = "  (cached)"
		}
		if rm.Truncated {
			truncated++
			note += "  TRUNCATED"
		}
		fmt.Printf("  %-36s %3d class(es) in %5d ms%s\n", rm.Key(), rm.Classes, rm.WallMS, note)
	}
	fmt.Printf("wrote %s: %d job(s) (%d cached), %d Trojan class(es), %d ms wall (-j %d)\n",
		dir, len(bundle.Manifest.Runs), bundle.Manifest.CachedJobs, total, bundle.Manifest.WallMS, *jobs)

	exit := 0
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "achilles-audit: %d job(s) failed\n", failed)
		exit = 1
	}
	if truncated > 0 {
		fmt.Fprintf(os.Stderr, "achilles-audit: %d job(s) truncated by MaxStates — class sets are partial\n", truncated)
	}
	if *golden != "" {
		switch {
		case bundle.Manifest.Interrupted:
			// Never certify a campaign that did not finish, even if the jobs
			// that DID run happen to match their golden corpora.
			fmt.Fprintf(os.Stderr, "achilles-audit: interrupted bundle cannot be gated against %s\n", *golden)
			exit = 1
		default:
			if drift := checkGolden(bundle, *golden); drift > 0 {
				fmt.Fprintf(os.Stderr, "achilles-audit: %d job(s) diverged from the golden corpus in %s\n", drift, *golden)
				exit = 1
			} else {
				fmt.Printf("golden check against %s: all optimized-mode class sets match\n", *golden)
			}
		}
	}
	if interrupted {
		// Distinct exit code: the bundle on disk is a partial artifact, not
		// an audit verdict.
		fmt.Fprintf(os.Stderr, "achilles-audit: campaign interrupted (%v) — partial bundle written to %s\n", runErr, dir)
		os.Exit(3)
	}
	os.Exit(exit)
}

// findWorkerBin resolves the achilles-worker binary for -workers: an
// explicit -worker-bin wins, then a sibling of this executable (the layout
// `go build -o bin/ ./...` and the CI artifacts produce), then PATH.
func findWorkerBin(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", fmt.Errorf("-worker-bin: %w", err)
		}
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "achilles-worker")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if bin, err := exec.LookPath("achilles-worker"); err == nil {
		return bin, nil
	}
	return "", errors.New("achilles-worker binary not found next to this executable or on PATH; build it (go build ./cmd/achilles-worker) or pass -worker-bin")
}

// claimRunDir creates a fresh default bundle directory under root. The name
// is run-<UTC timestamp>; when two runs land in the same second the later
// one gets a .2/.3/... suffix instead of writing into the earlier bundle.
func claimRunDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", root, err)
	}
	base := filepath.Join(root, "run-"+time.Now().UTC().Format("20060102-150405"))
	dir := base
	for n := 2; ; n++ {
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			return dir, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return "", fmt.Errorf("create bundle dir: %w", err)
		}
		dir = fmt.Sprintf("%s.%d", base, n)
	}
}

// checkGolden byte-compares every optimized-mode job's class lines against
// <dir>/<target>.golden, returning the number of diverging jobs. A missing
// golden file counts as divergence: a freshly registered target must check
// in its corpus before the audit gate passes. A truncated run counts as
// divergence even when its (partial) class set happens to match — a gate
// must never certify a corpus the analysis did not finish computing.
func checkGolden(b *campaign.Bundle, dir string) int {
	drift := 0
	optimized := core.ModeOptimized.String()
	for _, rm := range b.Manifest.Runs {
		if rm.Error != "" || rm.Mode != optimized {
			continue
		}
		if rm.Truncated {
			fmt.Fprintf(os.Stderr, "  %-36s truncated run cannot be gated\n", rm.Key())
			drift++
			continue
		}
		lines, _ := b.ClassLines(rm.Key())
		content := strings.Join(lines, "\n")
		if len(lines) > 0 {
			content += "\n"
		}
		want, err := os.ReadFile(filepath.Join(dir, rm.Target+".golden"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "  %-36s no golden: %v\n", rm.Key(), err)
			drift++
			continue
		}
		if string(want) != content {
			fmt.Fprintf(os.Stderr, "  %-36s class set diverged from %s.golden\n", rm.Key(), rm.Target)
			drift++
		}
	}
	return drift
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("achilles-audit diff", flag.ExitOnError)
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		fmt.Fprintln(os.Stderr, "achilles-audit diff: need exactly two bundle directories")
		usage(os.Stderr)
		os.Exit(2)
	}
	load := func(dir string) *campaign.Bundle {
		b, err := campaign.Read(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "achilles-audit:", err)
			os.Exit(2)
		}
		return b
	}
	oldB, newB := load(rest[0]), load(rest[1])
	d := campaign.Diff(oldB, newB)
	fmt.Print(d.Render())
	if !d.Empty() {
		os.Exit(1)
	}
}

func cmdLs(args []string) {
	fs := flag.NewFlagSet("achilles-audit ls", flag.ExitOnError)
	fs.Parse(args)
	root := defaultRoot
	if rest := fs.Args(); len(rest) == 1 {
		root = rest[0]
	} else if len(rest) > 1 {
		fmt.Fprintln(os.Stderr, "achilles-audit ls: at most one root directory")
		usage(os.Stderr)
		os.Exit(2)
	}
	listed, err := campaign.List(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "achilles-audit:", err)
		os.Exit(2)
	}
	if len(listed) == 0 {
		fmt.Printf("no bundles under %s\n", root)
		return
	}
	fmt.Printf("%-40s %-20s %5s %8s %8s  %-12s %s\n", "bundle", "created", "jobs", "classes", "wall ms", "content", "flags")
	for _, lb := range listed {
		classes := 0
		for _, rm := range lb.Manifest.Runs {
			classes += rm.Classes
		}
		// The content hash needs the report streams, so ls re-reads the full
		// bundle; one that fails validation shows "-" rather than killing
		// the listing.
		hash := "-"
		if b, err := campaign.Read(lb.Dir); err == nil {
			if h, err := b.ContentHash(); err == nil {
				hash = h[:12]
			}
		}
		flags := ""
		if lb.Manifest.Interrupted {
			flags = "interrupted"
		}
		fmt.Printf("%-40s %-20s %5d %8d %8d  %-12s %s\n",
			lb.Dir, lb.Manifest.CreatedAt, len(lb.Manifest.Runs), classes, lb.Manifest.WallMS, hash, flags)
	}
}

func cmdHash(args []string) {
	fs := flag.NewFlagSet("achilles-audit hash", flag.ExitOnError)
	fs.Parse(args)
	if len(fs.Args()) != 1 {
		fmt.Fprintln(os.Stderr, "achilles-audit hash: need exactly one bundle directory")
		usage(os.Stderr)
		os.Exit(2)
	}
	b, err := campaign.Read(fs.Args()[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "achilles-audit:", err)
		os.Exit(2)
	}
	h, err := b.ContentHash()
	if err != nil {
		fmt.Fprintln(os.Stderr, "achilles-audit:", err)
		os.Exit(2)
	}
	fmt.Println(h)
}
