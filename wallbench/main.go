// Command wallbench is the repository's wall-clock benchmark. It runs one
// workload through the public laoram API, checks the outputs, and prints
// the end-to-end metrics as the last line of standard output; with -trace 1
// it instead rebuilds the same stack from the layers' public constructors,
// times each layer from the outside, and prints the per-layer metrics.
//
//	go build -o wallbench . && ./wallbench -workload train-laoram-mem -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Every workload uses a table of 2^16 rows of 128 bytes.
const (
	rows     = 1 << 16
	rowBytes = 128
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params fixes the sizes of one run. main uses fullScale; the self-test
// runs the same code at a tiny scale.
type params struct {
	seed    int64
	budget  time.Duration // measured time per phase
	trace   bool
	workdir string // DataDir runs and other scratch files live under it

	rows       uint64
	window     int
	repStream  map[string]int // stream indices trained per repetition
	minReps    int            // repetitions at least, so setup_s is a median
	checkCalls int            // write calls (and twice as many read calls) per repetition's check
	checkIDs   int            // ids per call of the training check
	callIDs    int            // ids per serving call
	minCalls   int            // serving read and write calls at least
}

func fullScale() params {
	return params{
		rows:   rows,
		window: 1 << 17,
		repStream: map[string]int{
			"train-laoram-mem":         3 << 16,
			"train-pathoram-mem":       3 << 16,
			"train-laoram-sealed-disk": 1 << 17,
		},
		minReps:    3,
		checkCalls: 334,
		checkIDs:   16,
		callIDs:    64,
		minCalls:   1000,
	}
}

func main() {
	p := fullScale()
	workload := flag.String("workload", "", "workload name (see README.md)")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&p.workdir, "workdir", os.TempDir(), "directory for disk arenas")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "wallbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	// One P: on a 2-vCPU VM, hand-offs between the engine's goroutines on
	// two cores made runs slower and about twice as noisy (README.md,
	// "Noise").
	runtime.GOMAXPROCS(1)
	p.budget = time.Duration(*seconds) * time.Second
	p.trace = *traced == 1
	if p.trace {
		// The traced run measures two phases, untraced then traced, so
		// each gets half the time and the run lasts as long as an
		// untraced one.
		p.budget /= 2
	}

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "wallbench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	printProvenance(*workload, p)
	res, err := run(*workload, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "wallbench: %s: %d of %d accesses failed the correctness check\n", *workload, res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// workloads maps each name to its runner.
var workloads = map[string]func(name string, p params) (result, error){
	"train-laoram-mem":         runTrain,
	"train-pathoram-mem":       runTrain,
	"train-laoram-sealed-disk": runTrain,
	"serve-remote-rw":          runServe,
}

// printProvenance records what produced the numbers: git revision (as the
// Go toolchain stamped it when built inside a git checkout), CPU count, GOMAXPROCS, Go version and seed.
func printProvenance(workload string, p params) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				rev = strings.TrimPrefix(rev+" "+s.Key+"="+s.Value, "unknown ")
			}
		}
	}
	prov := map[string]any{
		"workload":   workload,
		"seed":       p.seed,
		"git":        rev,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"trace":      p.trace,
		"seconds":    p.budget.Seconds(),
	}
	b, _ := json.Marshal(prov) // a map of plain values always marshals
	fmt.Println("provenance " + string(b))
}

// note prints a human-readable detail line (never the last line).
func note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
