// Command benchmark measures the SimRank server and CrashSim-T end to
// end and layer by layer. One run covers one workload:
//
//	go run . --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// It generates the workload's input from the seed, then runs the
// program from those files in child processes of its own (GOMAXPROCS =
// CPU count): one that times set-up, one that offers the load untraced
// and, with --trace 1, one more with spans around every layer. The last
// line of standard output is the result as JSON; the exit status is
// non-zero when any correctness check failed. README.md describes the
// workloads and metrics.
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
	"slices"
	"strconv"
	"syscall"
	"time"
)

// runConfig is everything a child needs; the orchestrator writes it to
// the run directory as runFile.
type runConfig struct {
	Workload workload      `json:"workload"`
	Seed     uint64        `json:"seed"`
	Window   time.Duration `json:"window"`
	Dir      string        `json:"dir"`
	TraceOut string        `json:"trace_out,omitempty"`
}

const runFile = "config.json"

// runDeadline bounds a whole run, children included.
const runDeadline = 170 * time.Second

func nproc() int { return runtime.NumCPU() }

func main() {
	if len(os.Args) > 2 && os.Args[1] == "--child" {
		os.Exit(childMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "seed the inputs and load are derived from")
	seconds := flag.Int("seconds", 10, "length of the measurement window in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	traceOut := flag.String("trace-out", "", "Chrome trace-event file of the traced run (default: next to the binary)")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 1) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *trace == 1 && *traceOut == "" {
		*traceOut = filepath.Join(filepath.Dir(exe), fmt.Sprintf("trace-%s-%d.json", w.Name, *seed))
	}
	ok, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceOut, exe, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run prepares the inputs, runs the children and prints the result. It
// reports whether every check passed; an error means no result was
// printed. checkDrift compares the input with inputs.json (tests that
// shrink a workload turn it off).
func run(w workload, seed uint64, window time.Duration, traced bool, traceOut, exe string, checkDrift bool) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	dir, err := os.MkdirTemp(filepath.Dir(exe), "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	var failures []string
	fp, err := prepare(ctx, w, seed, dir)
	if err != nil {
		return false, fmt.Errorf("generating the input: %w", err)
	}
	if checkDrift {
		if seed != defaultSeed {
			if fp, err = fingerprint(w, defaultSeed); err != nil {
				return false, err
			}
		}
		if err := checkInput(w, fp); err != nil {
			failures = append(failures, err.Error())
		}
	}
	rc := runConfig{Workload: w, Seed: seed, Window: window, Dir: dir, TraceOut: traceOut}
	buf, err := json.Marshal(rc)
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(dir, runFile), buf, 0o644); err != nil {
		return false, err
	}
	roles := []string{roleSetup, roleRun}
	if traced {
		roles = append(roles, roleTraced)
	}
	results := map[string]*childResult{}
	for _, role := range roles {
		r, err := spawn(ctx, exe, role, dir)
		if err != nil {
			return false, fmt.Errorf("%s child: %w", role, err)
		}
		results[role] = r
		failures = append(failures, r.Failures...)
		for _, line := range r.Table {
			fmt.Println(line)
		}
	}

	defs := endToEnd
	if traced {
		defs = perLayer
		untraced, tracedLat := results[roleRun].Metrics["latency_p50_ms"], results[roleTraced].Metrics["latency_p50_ms"]
		results[roleTraced].Metrics["trace.overhead_pct"] = 100 * (ratio(tracedLat, untraced) - 1)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v := results[d.from].Metrics[d.name]
		out[d.name] = value{v, d.unit}
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range failures {
		fmt.Println("FAILED CHECK:", f)
	}
	primary := results[roleRun]
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(failures) == 0, primary.Attempted, primary.Failed, out})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return len(failures) == 0, nil
}

// spawn runs one child process and reads back its result.
func spawn(ctx context.Context, exe, role, dir string) (*childResult, error) {
	cmd := exec.CommandContext(ctx, exe, "--child", role, dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc()))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	// A child must not outlive an orchestrator that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(filepath.Join(dir, role+".json"))
	if err != nil {
		return nil, err
	}
	r := newChildResult()
	if err := json.Unmarshal(buf, r); err != nil {
		return nil, err
	}
	return r, nil
}

// childMain runs one role in a child process: args are the role and
// the run directory.
func childMain(args []string) int {
	role, dir := args[0], args[1]
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark %s child: %v\n", role, err)
		return 1
	}
	buf, err := os.ReadFile(filepath.Join(dir, runFile))
	if err != nil {
		return fail(err)
	}
	var rc runConfig
	if err := json.Unmarshal(buf, &rc); err != nil {
		return fail(err)
	}
	if !slices.Contains([]string{roleSetup, roleRun, roleTraced}, role) {
		return fail(fmt.Errorf("unknown role %q", role))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res := newChildResult()
	switch {
	case role == roleSetup:
		err = runSetup(ctx, rc, res)
	case rc.Workload.temporal():
		err = runTemporal(ctx, rc, res, role == roleTraced)
	default:
		err = runServing(ctx, rc, res, role == roleTraced)
	}
	if err != nil {
		return fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(dir, role+".json"), out, 0o644); err != nil {
		return fail(err)
	}
	return 0
}
