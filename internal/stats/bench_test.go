package stats

import (
	"path/filepath"
	"reflect"
	"testing"
)

// gateBase is a hand-built baseline with one row per layer and
// direction the committed file uses.
func gateBase() Bench {
	b := NewBench(5)
	b.Rows = []Row{
		{Layer: LayerKernel, Name: "spp_trigger", Unit: "ns/op", Better: Lower, Value: 200},
		{Layer: LayerKernel, Name: "spp_trigger", Unit: "allocs/op", Better: Lower, Value: 0},
		{Layer: LayerSim, Name: "fig9_spp_skip", Params: "603.bwaves_s seed=1", Unit: "instr/s", Better: Higher, Value: 7e6},
		{Layer: LayerServe, Name: "decisions", Params: "streams=8", Unit: "decisions/s", Better: Higher, Value: 4e6},
		{Layer: LayerSweep, Name: "cold", Params: "workers=2", Unit: "cells/s", Better: Higher, Value: 90},
	}
	return b
}

// failed returns the names and units of the failing checks.
func failed(checks []Check) []string {
	var out []string
	for _, c := range checks {
		if c.Fail {
			out = append(out, c.Layer+" "+c.Name+" "+c.Unit)
		}
	}
	return out
}

func TestGate(t *testing.T) {
	cases := []struct {
		name string
		edit func(rows []Row) []Row
		want []string
	}{
		{"within every bound", func(rows []Row) []Row {
			rows[0].Value *= 1.2 // kernel, 20% slower against a 25% bound
			rows[2].Value /= 1.7 // sim, 1.7x slower against 1.8x
			rows[4].Value *= 3   // faster never fails
			return rows
		}, nil},
		{"2x slower ns/op", func(rows []Row) []Row { rows[0].Value *= 2; return rows },
			[]string{"kernel spp_trigger ns/op"}},
		{"allocs 0 to 1", func(rows []Row) []Row { rows[1].Value = 1; return rows },
			[]string{"kernel spp_trigger allocs/op"}},
		{"2x slower sim, serve and sweep rates", func(rows []Row) []Row {
			for i := 2; i < 5; i++ {
				rows[i].Value /= 2
			}
			return rows
		}, []string{"sim fig9_spp_skip instr/s", "serve decisions decisions/s", "sweep cold cells/s"}},
		{"baseline row missing from the run", func(rows []Row) []Row { return rows[:4] },
			[]string{"sweep cold cells/s"}},
		{"run row without a baseline", func(rows []Row) []Row {
			// Other params are another row, so this is no regression of
			// the 2-worker row, whose own measurement is also present.
			return append(rows, Row{Layer: LayerSweep, Name: "cold", Params: "workers=8", Unit: "cells/s", Better: Higher, Value: 1})
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := gateBase()
			cur.Rows = tc.edit(cur.Rows)
			checks := Gate(gateBase(), cur)
			if got := failed(checks); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("failing rows = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestGateMarksMissingAndUnbaselinedRows(t *testing.T) {
	cur := gateBase()
	extra := Row{Layer: LayerServe, Name: "decisions", Params: "streams=128", Unit: "decisions/s", Better: Higher, Value: 1}
	cur.Rows = append(cur.Rows[1:], extra)
	checks := Gate(gateBase(), cur)
	last, missing := checks[len(checks)-2], checks[len(checks)-1]
	if last.Row != extra || last.HasBase || last.Fail {
		t.Errorf("unbaselined row check = %+v, want informational", last)
	}
	if !missing.Missing || !missing.Fail || missing.Name != "spp_trigger" || missing.Unit != "ns/op" {
		t.Errorf("missing row check = %+v, want the dropped ns/op row failing", missing)
	}
}

func TestAddKeepsBestInItsDirection(t *testing.T) {
	var b Bench
	for _, v := range []float64{5, 3, 4} {
		b.Add(Row{Layer: LayerKernel, Name: "k", Unit: "ns/op", Better: Lower, Value: v})
		b.Add(Row{Layer: LayerSim, Name: "s", Unit: "instr/s", Better: Higher, Value: v})
	}
	if len(b.Rows) != 2 || b.Rows[0].Value != 3 || b.Rows[1].Value != 5 {
		t.Fatalf("rows = %+v, want ns/op 3 and instr/s 5", b.Rows)
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_layers.json")
	want := gateBase()
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
	bad := gateBase()
	bad.Rows[0].Better = "faster"
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBench(path); err == nil {
		t.Fatal("a row with an unknown direction loaded")
	}
}
