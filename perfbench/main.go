// Command perfbench is the repository's benchmark: two workloads that
// exercise the simulator at the paper's scale and the binary/UDP serving
// plane up to its capacity. It
// calls the program only through its public package APIs and reads the
// counters the program already exposes.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last stdout line carries every end-to-end metric;
// with --trace 1 the run measures the workload once untraced and once
// traced, and the last line carries every per-layer metric (including
// the tracing overhead). Lines before it name each metric with its unit
// and record the machine shape and the program's Go line counts. The
// exit code is non-zero when an output check fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are one run's command-line settings.
type opts struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
}

// outcome is what a workload hands back: its metric values by name, the
// operation counts, and every output-check failure it saw.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
	notes     []string // human-readable context printed before the result
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(opts) (*outcome, error){
	"sim-paper": runSimPaper,
	"serve-udp": runServeUDP,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var o opts
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: sim-paper or serve-udp")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 10, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", o.workload, seconds, trace)
		return 2
	}
	o.budget = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	env, err := environment()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	env["workload"] = o.workload
	env["seed"] = o.seed
	env["trace"] = trace
	if blob, err := json.Marshal(env); err == nil {
		fmt.Printf("env %s\n", blob)
	}
	for _, n := range out.notes {
		fmt.Println("note", n)
	}

	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok {
			v = 0 // the workload does not exercise this layer
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, fmt.Sprintf("metric %s is %v", s.name, v))
			v = 0
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		if s.moves != "" {
			fmt.Printf("metric %-34s %16.6g %-6s moves %s on %s\n", s.name, v, s.unit, s.moves, s.on)
		} else {
			fmt.Printf("metric %-34s %16.6g %s\n", s.name, v, s.unit)
		}
	}
	if res.Attempted < 1 {
		out.problems = append(out.problems, "no operation attempted")
	}
	res.Correct = len(out.problems) == 0
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// environment records the machine shape, the toolchain and the
// program's size next to every run.
func environment() (map[string]any, error) {
	src, tests, err := goLines(".")
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"num_cpu":          runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"go_lines_nontest": src,
		"go_lines_test":    tests,
	}, nil
}

// median returns the middle of xs (mean of the middle two); 0 if empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 if empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
