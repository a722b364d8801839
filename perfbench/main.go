// Command perfbench is the repository benchmark. It drives the campaign
// service through its public entry points (oagrid.Dial against an
// in-process grid.Fabric, or oagrid.Local) with a closed loop of two
// clients, verifies every completed campaign bit for bit against serial
// replay (grid.Verifier), and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload small --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics (spans timed around the calls into each layer, plus direct probes
// of the layers' public functions). See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// buildDir is the scratch directory, relative to the repository root, that
// holds the build, the store probe's state dirs and the span dumps.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "small", "workload: small, paper or local")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same campaign sequence")
		seconds = flag.Float64("seconds", 30, "measured time in seconds (a traced run splits it between an untraced and a traced phase)")
		traced  = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := defaultConfig(w, *seed, time.Duration(*seconds*float64(time.Second)))
	cfg.traced = *traced == 1
	cfg.spansOut = filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
	rep, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d campaigns failed or did not verify\n", rep.Failed, rep.Attempted)
		os.Exit(1)
	}
}

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the machine-readable summary of one run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes a human-readable metric listing followed by the JSON
// result line, which is always the last line of standard output.
func printResult(out io.Writer, rep *report) error {
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
