// Command bench2json converts `go test -bench` output on stdin into a JSON
// document on stdout, so CI can archive benchmark trajectories as
// machine-readable artifacts (see `make bench-json`).
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem ./... | bench2json
//
// Output shape:
//
//	{
//	  "goos": "linux", "goarch": "amd64", "cpu": "...",
//	  "benchmarks": [
//	    {"package": "templar/internal/qfg", "name": "BenchmarkDiceSnapshotID",
//	     "runs": 100000, "metrics": {"ns/op": 6.3, "B/op": 0, "allocs/op": 0}}
//	  ]
//	}
//
// Names drop the "-N" GOMAXPROCS suffix `go test` appends on multi-core
// runs, so reports from machines with different core counts share
// benchmark names (cmd/benchdiff matches on them).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchmark struct {
	Package string             `json:"package"`
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

type document struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	doc := document{Benchmarks: []benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line, pkg); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// parseBenchLine parses "BenchmarkName-8  100  12.3 ns/op  0 B/op ...":
// a name, an iteration count, then (value, unit) pairs. The name is
// recorded without its "-8" GOMAXPROCS suffix.
func parseBenchLine(line, pkg string) (benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Package: pkg, Name: stripProcs(fields[0]), Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// stripProcs removes a trailing "-N" (all digits) from a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
