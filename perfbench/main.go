// Command perfbench is the repository's benchmark: it runs one
// workload through the public surfaces (the sparsehypercube facade and
// the planserver HTTP API), checks every answer, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separate traced run. See README.md in this directory.
//
//	perfbench -workload verify-gen -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is the result object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// options are the command line of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	workDir  string
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where the traced run writes spans and the layer table")
	fs.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "work"), "scratch space for plan files and spill directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = trace == 1
	res, err := execute(fullSize, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "provenance %s\n", provenance())
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printTable(out, defs, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers, see above")
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute sets the workload up until cfg.setupReps set-ups have run
// uncontended (steal.go), or 2*cfg.setupReps have run, timing each and
// keeping the last; then it runs the workload untraced or traced.
// setup_s is the median of the uncontended set-ups, or of the least
// contended half of cfg.setupReps when too few were.
func execute(cfg config, o options) (result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	var (
		b              bench
		setups, shares []float64
		clean          int
	)
	for r := 0; ; r++ {
		dir := filepath.Join(work, fmt.Sprint(r))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return result{}, err
		}
		s0, ok0 := readCPUStat()
		t0 := time.Now()
		b, err = workloads[o.workload](cfg, o.seed, dir)
		dt := time.Since(t0).Seconds()
		s1, ok1 := readCPUStat()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, dt)
		shares = append(shares, stealShare(s0, ok0, s1, ok1))
		if shares[r] <= maxSteal {
			clean++
		}
		if clean >= cfg.setupReps || r+1 >= 2*cfg.setupReps {
			if err := syncTree(dir); err != nil {
				b.close()
				return result{}, err
			}
			break
		}
		if err := b.close(); err != nil {
			return result{}, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return result{}, err
		}
	}
	limit := stealLimit(shares, (cfg.setupReps+1)/2)
	var kept []float64
	for i, dt := range setups {
		if shares[i] <= limit {
			kept = append(kept, dt)
		}
	}
	setupS := median(kept)
	fmt.Printf("set-up: %d runs, %d uncontended, median of %d\n", len(setups), clean, len(kept))
	runtime.GC()

	m := metricSet{}
	d := time.Duration(o.seconds * float64(time.Second))
	var attempted, failed int
	defs := endToEnd
	if o.trace {
		defs = perLayer
		t := newTracer()
		attempted, failed = b.traced(d, t, m)
		if err := writeTrace(o, t); err != nil {
			b.close()
			return result{}, err
		}
	} else {
		attempted, failed = b.measure(d, m)
		m.set("setup_s", setupS)
	}
	if err := b.close(); err != nil {
		return result{}, err
	}
	if !o.trace {
		m.set("peak_rss_mb", peakRSSMB())
	} else {
		m.set("error_rate", float64(failed)/float64(max(attempted, 1)))
	}
	vals, err := m.render(defs)
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: vals}, nil
}

// syncTree flushes every file the kept set-up wrote under dir to disk,
// so the kernel's writeback of them does not run during the measured
// loop. The discarded set-ups' files are deleted before they are
// written back.
func syncTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		serr := f.Sync()
		if cerr := f.Close(); serr == nil {
			serr = cerr
		}
		return serr
	})
}

// writeTrace writes the span dump and the per-layer table of a traced
// run, and prints the table.
func writeTrace(o options, t *tracer) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return err
	}
	werr := t.writeSpans(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	var table strings.Builder
	writeLayerTable(&table, t.ops())
	fmt.Print(table.String())
	header := fmt.Sprintf("workload %s seed %d\nprovenance %s\n", o.workload, o.seed, provenance())
	return os.WriteFile(base+"-layers.txt", []byte(header+table.String()), 0o644)
}

// provenance names the host a run measured, so numbers from different
// hosts are never compared silently.
func provenance() string {
	p, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	})
	return string(p)
}

// cpuModel reads the processor name from /proc/cpuinfo where the
// platform has one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
