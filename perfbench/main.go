// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload: generates seeded inputs in a child process, starts an
// in-process opmapd (internal/server on a loopback listener, ingestion
// through a fsynced WAL) several times to time set-up, drives a fixed
// seeded request sequence from one closed-loop client, checks every
// answer, and prints one JSON result line. With --trace 1 it runs the
// sequence a second time with spans and registry deltas recorded and
// reports per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// gomaxprocs pins the measured process's parallelism. One P keeps the
// client, the server and the GC on one core, so a run does not depend
// on how the host schedules a second thread.
const gomaxprocs = 1

// Run shape constants.
const (
	csvRows = 100000
	setups  = 3 // set-ups per run; setup_s is their median
	// workDir holds a run's generated inputs and WAL directories, and
	// traceDir the traced run's output, relative to the checkout root.
	workDir  = ".bench_build"
	traceDir = ".bench_build/trace"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	requests int // perSecond × seconds + 1
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runMain(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "input and sequence seed")
	fs.IntVar(&o.seconds, "seconds", 10, "planned measuring time; sizes the request sequence")
	fs.IntVar(&trace, "trace", 0, "1: add a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	wl, ok := workloads[o.workload]
	switch {
	case !ok:
		return o, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloadNames())
	case o.seconds < 1 || (trace != 0 && trace != 1):
		return o, fmt.Errorf("bad --seconds or --trace")
	}
	o.trace = trace == 1
	o.requests = wl.perSecond*o.seconds + 1
	return o, nil
}

// runMain generates the inputs in a child process, then measures.
func runMain(o options) (*result, error) {
	runtime.GOMAXPROCS(gomaxprocs)
	dir := filepath.Join(workDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	gen := exec.Command(self, "gen", "-dir", filepath.Join(dir, "inputs"), "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-rows", strconv.Itoa(csvRows), "-requests", strconv.Itoa(o.requests))
	gen.Stdout, gen.Stderr = os.Stderr, os.Stderr
	if err := gen.Run(); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: inputs generated in %.1fs\n", o.workload, o.seed, time.Since(start).Seconds())
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	return measure(ctx, o, dir)
}
