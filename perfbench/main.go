// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three single-threaded workloads (campaign, paging, recorder),
// each pass in a fresh child process with GOMAXPROCS and GOGC pinned,
// checks every output against pinned digests, and prints one JSON
// result line.
//
//	perfbench --workload paging --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it makes passes until another would overrun --seconds
// (at least two), with short set-up children (the workload's compile,
// bind and boot calls, repeated) between the first ones. It times every
// operation of a pass (a cell or a job) and reports the end-to-end
// metrics (wall_s, cpu_s, peak_rss_mb, alloc_mb, setup_s); times are
// each operation's fastest pass at a reference host speed (speed.go).
// With --trace 1 it runs rounds of a set-up child, an untraced pass and
// a traced pass, and reports per-layer metrics from them: spans around
// the benchmark's calls into the simulator, the simulator's own
// counters, runtime/metrics deltas, and a CPU profile bucketed by
// simulator package. Run it from the repository root; see README.md in
// this directory for the workloads and the metric-to-layer map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The child's runtime settings. One P keeps the single simulation
// thread, its goroutine handoffs and the GC on one core, so a noisy
// neighbour on the host moves the numbers as little as possible.
const (
	childGOMAXPROCS = "1"
	childGOGC       = "100"
)

// runBudget bounds one invocation; children still running at the
// deadline are killed and the run fails.
const runBudget = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	child    string // "" in the parent; a childRole in a child
	probe    bool   // a run child probes the host's speed around each operation
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed that orders the cells of paging and recorder")
	flag.IntVar(&o.seconds, "seconds", 36, "measurement budget in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.child, "child", "", "run one child role in this process: setup, run or trace (internal)")
	flag.BoolVar(&o.probe, "probe", false, "with -child run, probe the host's speed around each operation (internal)")
	pin := flag.Bool("pin", false, "rewrite "+digestFile+" from fresh runs and exit")
	flag.Parse()

	if *pin {
		if err := pinDigests(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if o.trace != 0 && o.trace != 1 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	if o.child != "" {
		os.Exit(childMain(o))
	}
	if err := checkInputs(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	res, err := parentMain(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one child run as seen from outside plus what the child
// reported about itself.
type sample struct {
	wall  time.Duration
	rssMB float64
	rep   childReport
}

func parentMain(o options) (*result, error) {
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%s GOGC=%s\n",
		o.workload, o.seed, o.seconds, o.trace, childGOMAXPROCS, childGOGC)
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	// A signal to the benchmark kills the running child too.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Set-up runs in its own process: the systems it boots are never
	// torn down, so in a workload child they would inflate peak_rss_mb.
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	if o.trace == 0 {
		return endToEnd(ctx, o, start.Add(budget))
	}

	// Per-layer rounds: set-up, one untraced pass, one traced pass,
	// until another round would overrun the budget.
	var setups, plain, traced []sample
	for {
		for _, role := range []string{roleSetup, roleRun, roleTrace} {
			s, err := runChild(ctx, o, role)
			if err != nil {
				return nil, err
			}
			switch role {
			case roleSetup:
				setups = append(setups, s)
			case roleRun:
				plain = append(plain, s)
			default:
				traced = append(traced, s)
			}
		}
		// Stop when another round would overrun the budget.
		rounds := time.Duration(len(plain))
		if el := time.Since(start); el+el/rounds > budget {
			break
		}
	}

	res := newResult(append(append([]sample(nil), plain...), traced...)...)

	// Per-layer metrics: the median of each over the rounds, from the
	// set-up and traced children, plus the tracing cost measured
	// against the paired untraced children.
	for _, group := range [][]sample{setups, traced} {
		names := map[string]string{}
		for _, s := range group {
			for k, m := range s.rep.Layers {
				names[k] = m.Unit
			}
		}
		for name, unit := range names {
			vals := make([]float64, len(group))
			for i, s := range group {
				vals[i] = s.rep.Layers[name].Value
			}
			res.Metrics[name] = metric{median(vals), unit}
		}
	}
	over := make([]float64, len(traced))
	for i := range traced {
		over[i] = traced[i].wall.Seconds() - plain[i].wall.Seconds()
	}
	res.Metrics["trace.overhead_s"] = metric{median(over), "s"}
	return res, nil
}

// An end-to-end run makes at least minPasses workload children (passes),
// so that every operation has a second time to fall back on, and
// setupChildren set-up children spread over the run.
const (
	minPasses     = 2
	setupChildren = 3
)

// endToEnd runs one workload child (a pass) after another until another
// would end past the deadline, with a set-up child before each of the
// first setupChildren passes (and after the last, if there were fewer
// passes). wall_s and cpu_s are fastestSum over the passes and setup_s
// the fastest set-up child; the other metrics are medians over the
// passes.
func endToEnd(ctx context.Context, o options, deadline time.Time) (*result, error) {
	var passes, setups []sample
	setup := func() error {
		s, err := runChild(ctx, o, roleSetup)
		setups = append(setups, s)
		return err
	}
	start := time.Now()
	for {
		if len(setups) < setupChildren {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		s, err := runChild(ctx, o, roleRun, "-probe")
		if err != nil {
			return nil, err
		}
		if len(passes) > 0 && len(s.rep.Ops) != len(passes[0].rep.Ops) {
			return nil, fmt.Errorf("%s: a pass timed %d operations, the first %d", o.workload, len(s.rep.Ops), len(passes[0].rep.Ops))
		}
		passes = append(passes, s)
		perPass := time.Since(start) / time.Duration(len(passes))
		if len(passes) >= minPasses && time.Now().Add(perPass).After(deadline) {
			break
		}
	}
	for len(setups) < setupChildren {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.rep.SetupS
	}
	walls := make([]float64, len(passes))
	var probes []float64
	rss := make([]float64, len(passes))
	alloc := make([]float64, len(passes))
	for i, s := range passes {
		walls[i], rss[i], alloc[i] = s.wall.Seconds(), s.rssMB, s.rep.AllocMB
		for _, op := range s.rep.Ops {
			probes = append(probes, op[2])
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes; median pass %.3f s measured; probe %.2f ms (reference %.2f ms)\n",
		len(passes), median(walls), median(probes)*1e3, refProbe.Seconds()*1e3)
	res := newResult(passes...)
	res.Metrics["wall_s"] = metric{fastestSum(passes, 0), "s"}
	res.Metrics["cpu_s"] = metric{fastestSum(passes, 1), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	res.Metrics["alloc_mb"] = metric{median(alloc), "MB"}
	res.Metrics["setup_s"] = metric{minimum(setupS), "s"}
	return res, nil
}

// newResult counts the operations of the workload children and prints
// their errors.
func newResult(children ...sample) *result {
	res := &result{Metrics: map[string]metric{}}
	for _, s := range children {
		res.Attempted += s.rep.Attempted
		res.Failed += s.rep.Failed
		for _, e := range s.rep.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// runChild runs one child role in a fresh process and measures its
// wall time and peak resident set from outside.
func runChild(ctx context.Context, o options, role string, args ...string) (sample, error) {
	args = append([]string{"-child", role, "-workload", o.workload, "-seed", fmt.Sprint(o.seed)}, args...)
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(pinnedEnv(), "GOMAXPROCS="+childGOMAXPROCS, "GOGC="+childGOGC)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return sample{}, fmt.Errorf("%s %s child: %w", o.workload, role, err)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return sample{}, fmt.Errorf("%s %s child: bad report: %w", o.workload, role, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return sample{}, fmt.Errorf("no rusage for the %s child", o.workload)
	}
	return sample{wall: wall, rssMB: float64(ru.Maxrss) / 1024, rep: rep}, nil
}

// pinnedEnv is the inherited environment minus every variable that
// would change how the Go runtime schedules or collects.
func pinnedEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG", "GOTRACEBACK":
			continue
		}
		env = append(env, kv)
	}
	return env
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
