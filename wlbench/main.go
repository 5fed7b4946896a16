// Command wlbench is the repository's benchmark. It runs one named workload
// of the Welch–Lynch reproduction from a workload seed for a fixed number of
// seconds, checks every op's output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a traced run) as the last line
// of standard output. See README.md in this directory.
//
//	go run . --workload flat-engine --seed 1 --seconds 40 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 40, "seconds of ops to time")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "wlbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "wlbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	rc := runConfig{
		seed:      *seed,
		seconds:   float64(*seconds),
		minOps:    3,
		setupReps: 21,
		sz:        fullSizes,
		pinned:    pinnedDigests,
	}
	var res result
	if *trace == 1 {
		rc.minOps = 1
		res = measureTraced(w, rc)
	} else {
		res = measure(w, rc)
	}
	res.detail["workload"] = w.name
	res.detail["why"] = w.why
	res.detail["seed"] = *seed
	res.detail["seconds"] = *seconds
	res.detail["trace"] = *trace
	res.detail["host"] = hostRecord()
	out := bufio.NewWriter(stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(res.detail); err != nil {
		fmt.Fprintf(stderr, "wlbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "wlbench: %v\n", err)
		return 1
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintf(stderr, "wlbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// hostRecord describes where and from what a result was measured.
func hostRecord() map[string]any {
	h := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
	}
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	h["vcs_revision"] = rev
	h["vcs_modified"] = modified
	return h
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
