package runner

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"icistrategy/internal/experiments"
	"icistrategy/internal/metrics"
)

// TestResultsInInputOrder forces completion order to invert input order
// (cell 0 blocks until every other cell has finished) and checks that the
// result slice still follows input order.
func TestResultsInInputOrder(t *testing.T) {
	const n = 8
	var rest sync.WaitGroup
	rest.Add(n - 1)
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Key: fmt.Sprintf("cell-%d", i),
			Run: func() (*metrics.Table, error) {
				if i == 0 {
					rest.Wait() // finish strictly last
				} else {
					defer rest.Done()
				}
				tbl := metrics.NewTable(fmt.Sprintf("t%d", i), "i")
				tbl.AddRow(i)
				return tbl, nil
			},
		}
	}
	results := Run(cells, n)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		if r.Key != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("result %d has key %s", i, r.Key)
		}
		if want := fmt.Sprintf("t%d", i); r.Table.Title != want {
			t.Fatalf("result %d holds table %q, want %q", i, r.Table.Title, want)
		}
	}
}

// TestParallelMatchesSequential renders a slice of real Quick-scale
// experiments through a 1-worker pool and a wide pool: the acceptance bar
// says the two runs must be byte-identical.
func TestParallelMatchesSequential(t *testing.T) {
	p := experiments.Quick()
	ids := []string{"E3", "E4", "E7", "E8"}
	build := func() []Cell {
		cells := make([]Cell, 0, len(ids))
		for _, id := range ids {
			e, ok := experiments.ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			cells = append(cells, Cell{Key: e.ID, Run: func() (*metrics.Table, error) { return e.Run(p) }})
		}
		return cells
	}
	render := func(rs []Result) string {
		out := ""
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Key, r.Err)
			}
			out += r.Table.String() + r.Table.CSV()
		}
		return out
	}
	seq := render(Run(build(), 1))
	par := render(Run(build(), 4))
	if seq != par {
		t.Fatal("parallel run is not byte-identical to sequential run")
	}
}

// TestErrorIsolation: a failing cell reports its error at its own index
// and never prevents sibling cells from completing.
func TestErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	cells := []Cell{
		{Key: "ok-0", Run: func() (*metrics.Table, error) { return metrics.NewTable("a", "x"), nil }},
		{Key: "bad", Run: func() (*metrics.Table, error) { return nil, boom }},
		{Key: "ok-2", Run: func() (*metrics.Table, error) { return metrics.NewTable("b", "x"), nil }},
	}
	results := Run(cells, 2)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy cells errored: %v / %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("failing cell reported %v", results[1].Err)
	}
	if results[0].Table == nil || results[2].Table == nil {
		t.Fatal("healthy cells lost their tables")
	}
}

// TestRunDefaultsAndEmpty covers workers<=0 (GOMAXPROCS default) and the
// empty cell list.
func TestRunDefaultsAndEmpty(t *testing.T) {
	if got := Run(nil, 0); len(got) != 0 {
		t.Fatalf("empty run returned %v", got)
	}
	ran := false
	results := Run([]Cell{{Key: "only", Run: func() (*metrics.Table, error) {
		ran = true
		return nil, nil
	}}}, 0)
	if !ran || len(results) != 1 {
		t.Fatalf("default-worker run misbehaved: ran=%v results=%v", ran, results)
	}
}
