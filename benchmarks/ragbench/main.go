// Command ragbench is the repository's benchmark: five workloads over the
// MCQA generation/evaluation pipeline and the retrieval serving stack, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. See ../README.md for the workloads, the metric glossary and
// how the metrics are expected to interact.
//
// Usage:
//
//	ragbench -workload serve_miss -seed 1 -seconds 10 -trace 0   # one run; last stdout line is the driver's JSON result
//	ragbench -seed 1 [-trace 1] [-json out.json]                 # all five workloads, one child process each
//	ragbench -smoke                                              # all five at 1/20 size, checks on
//	ragbench -compare a.json b.json                              # judge set b against set a
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() {
	workload := flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all five")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	jsonPath := flag.String("json", "", "append the full report of every run to this file")
	smoke := flag.Bool("smoke", false, "every workload at 1/20 size with a short window: correctness checks only")
	compare := flag.Bool("compare", false, "compare two -json reports given as arguments: parent first, change second")
	outDir := flag.String("out", "benchmarks/out", "directory for span files and scratch indexes")
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *outDir}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *workload == "":
		err = runSuite(ctx, opt, *jsonPath)
	default:
		err = runOne(ctx, opt, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ragbench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

// runWorkload measures one workload in this process.
func runWorkload(ctx context.Context, opt options) (*runReport, error) {
	if !slices.Contains(workloadNames, opt.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	if opt.smoke {
		opt.seconds = min(opt.seconds, defaultSeconds) / 20
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v: want a positive length", opt.seconds)
	}
	r := newRunReport(opt.workload, opt.seed, opt.trace, opt.seconds, opt.smoke)
	var err error
	if opt.workload == wlMCQABuild {
		err = runMCQA(ctx, opt, r)
	} else {
		err = runServing(ctx, opt, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	r.finish()
	return r, nil
}

// runOne is the driver's entry: one workload, the human report, then the
// result object as the last line of standard output.
func runOne(ctx context.Context, opt options, jsonPath string) error {
	r, err := runWorkload(ctx, opt)
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	if jsonPath != "" {
		if err := appendReport(jsonPath, r); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	if !opt.smoke {
		line, err := r.contractLine()
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if !r.Correct {
		return fmt.Errorf("%s: %w", opt.workload, errIncorrect)
	}
	return nil
}

// runSuite runs every workload, each in a child process of this binary so
// one workload's heap, caches and peak memory cannot colour the next, and
// each exactly as the driver would run it. With trace, every workload runs
// twice: untraced for the end-to-end metrics, traced for the per-layer ones.
func runSuite(ctx context.Context, opt options, jsonPath string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	modes := []string{"0"}
	if opt.trace {
		modes = append(modes, "1")
	}
	var failed []string
	for _, w := range workloadNames {
		for _, mode := range modes {
			args := []string{"-workload", w, "-seed", strconv.FormatUint(opt.seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", mode, "-out", opt.outDir}
			if jsonPath != "" {
				args = append(args, "-json", jsonPath)
			}
			if opt.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				if ctx.Err() != nil {
					return fmt.Errorf("interrupted during %s: %w", w, ctx.Err())
				}
				failed = append(failed, w+" (trace "+mode+"): "+err.Error())
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d run(s) failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// runCompare prints the comparison of two report files and fails on a breach.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two report files, got %d", len(args))
	}
	a, err := loadReportFile(args[0])
	if err != nil {
		return fmt.Errorf("parent report: %w", err)
	}
	b, err := loadReportFile(args[1])
	if err != nil {
		return fmt.Errorf("change report: %w", err)
	}
	if printComparison(os.Stdout, compareSets(a, b)) {
		return errors.New("at least one end-to-end metric is worse than its bound allows")
	}
	return nil
}
