// Command benchjson converts `go test -bench -benchmem` text output into
// the BENCH_*.json trajectory format committed at the repository root: a
// machine-readable before/after pair for one PR's performance work, so the
// benchmark history of the repo is diffable and CI can archive it as an
// artifact without re-running the slow figure benchmarks.
//
// Usage:
//
//	benchjson -before before.txt[,more.txt] -after after.txt[,more.txt] -out BENCH_<n>.json
//
// Each input file is raw `go test -bench` output. Standard metrics
// (ns/op, B/op, allocs/op) and custom b.ReportMetric units (nrmse,
// mean-nrmse, events, ...) are all carried through verbatim. The "after"
// side is optional while iterating (-after may be omitted), but a committed
// trajectory file should always carry both sides.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Env records the go test environment header lines.
type Env struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
}

// Trajectory is the document written to BENCH_*.json.
type Trajectory struct {
	Schema string  `json:"schema"`
	Env    Env     `json:"env"`
	Before []Entry `json:"before"`
	After  []Entry `json:"after,omitempty"`
}

// cpuSuffix strips the -GOMAXPROCS suffix go test appends to benchmark
// names, so entries compare across machines with different core counts.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	before := flag.String("before", "", "comma-separated bench output files for the 'before' side (required)")
	after := flag.String("after", "", "comma-separated bench output files for the 'after' side")
	out := flag.String("out", "", "output JSON path (default stdout)")
	flag.Parse()

	if *before == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -before is required")
		flag.Usage()
		os.Exit(2)
	}

	doc := Trajectory{Schema: "dspot-bench-trajectory/v1"}
	var err error
	doc.Before, err = parseFiles(strings.Split(*before, ","), &doc.Env)
	if err != nil {
		fatal(err)
	}
	if *after != "" {
		doc.After, err = parseFiles(strings.Split(*after, ","), &doc.Env)
		if err != nil {
			fatal(err)
		}
	}
	if len(doc.Before) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *before))
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func parseFiles(paths []string, env *Env) ([]Entry, error) {
	var entries []Entry
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		es, err := parse(f, env)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		entries = append(entries, es...)
	}
	return entries, nil
}

func parse(f io.Reader, env *Env) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			env.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			env.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			env.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			env.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. a "Benchmark..." name echoed by -v
		}
		e := Entry{
			Name:       cpuSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value %q in line %q", fields[i], line)
			}
			e.Metrics[fields[i+1]] = v
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}
