package main

import (
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		want benchmark
		ok   bool
	}{
		{
			line: "BenchmarkDiceSnapshotID-8   \t  100000\t  6.3 ns/op\t  0 B/op\t  0 allocs/op",
			want: benchmark{Package: "p", Name: "BenchmarkDiceSnapshotID", Runs: 100000,
				Metrics: map[string]float64{"ns/op": 6.3, "B/op": 0, "allocs/op": 0}},
			ok: true,
		},
		{
			line: "BenchmarkTableII \t 1 \t 11569696 ns/op",
			want: benchmark{Package: "p", Name: "BenchmarkTableII", Runs: 1,
				Metrics: map[string]float64{"ns/op": 11569696}},
			ok: true,
		},
		{
			line: "BenchmarkColdStart/store/MAS-2  50  120.5 ns/op",
			want: benchmark{Package: "p", Name: "BenchmarkColdStart/store/MAS", Runs: 50,
				Metrics: map[string]float64{"ns/op": 120.5}},
			ok: true,
		},
		{
			// A hyphen not followed by digits is part of the name.
			line: "BenchmarkX/a-b  3  1 ns/op",
			want: benchmark{Package: "p", Name: "BenchmarkX/a-b", Runs: 3,
				Metrics: map[string]float64{"ns/op": 1}},
			ok: true,
		},
		{line: "BenchmarkX-8", ok: false},                      // no results
		{line: "BenchmarkX-8  100  6.3", ok: false},            // value without unit
		{line: "BenchmarkX-8  many  6.3 ns/op", ok: false},     // bad iteration count
		{line: "BenchmarkX-8  100  fast ns/op", ok: false},     // bad value
		{line: "BenchmarkX-8  --- FAIL: something", ok: false}, // failure output
	} {
		got, ok := parseBenchLine(tc.line, "p")
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.line, got, tc.want)
		}
	}
}
