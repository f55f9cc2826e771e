package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

// Counters are monotone: a negative delta used to be silently ignored,
// which hid caller bugs behind mysteriously-low counts. It must panic.
func TestCounterNegativeDeltaPanics(t *testing.T) {
	var c Counter
	c.Add(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-10) did not panic")
		}
		if got := c.Value(); got != 5 {
			t.Fatalf("Value() after rejected Add = %d, want 5", got)
		}
	}()
	c.Add(-10)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 50_000 {
		t.Fatalf("Value() = %d, want 50000", got)
	}
}

// TestCounterValueWhileBumped reads a counter while another goroutine bumps
// it: every read is one the writer wrote, so values never go down. Under
// -race a read that is not atomic is reported here; TestCounterConcurrent
// reads only after its writers are done and cannot see one.
func TestCounterValueWhileBumped(t *testing.T) {
	const n = 10_000
	var c Counter
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			c.Inc()
		}
	}()
	last := int64(0)
	for i := 0; i < n; i++ {
		v := c.Value()
		if v < last || v > n {
			t.Fatalf("Value() = %d after %d", v, last)
		}
		last = v
	}
	<-done
	if got := c.Value(); got != n {
		t.Fatalf("Value() = %d, want %d", got, n)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 || h.Stddev() != 0 {
		t.Fatal("empty histogram should answer 0 for all queries")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean() = %v, want 3", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Percentile(50); got != 3 {
		t.Fatalf("P50 = %v, want 3", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v, want 1", got)
	}
	if got := h.Percentile(100); got != 5 {
		t.Fatalf("P100 = %v, want 5", got)
	}
	wantStd := math.Sqrt(2) // population stddev of 1..5
	if math.Abs(h.Stddev()-wantStd) > 1e-9 {
		t.Fatalf("Stddev() = %v, want %v", h.Stddev(), wantStd)
	}
}

func TestHistogramObserveAfterQuery(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Max()
	h.Observe(20)
	if h.Max() != 20 {
		t.Fatal("sample recorded after a query was lost")
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Observe(v)
			}
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if h.Count() > 0 && v < prev {
				return false
			}
			if h.Count() > 0 {
				prev = v
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSqrtMatchesMath(t *testing.T) {
	for _, x := range []float64{0, 1, 2, 100, 1e-9, 12345.678, 1e12} {
		got, want := sqrt(x), math.Sqrt(x)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("sqrt(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{1024, "1.00 KB"},
		{1536, "1.50 KB"},
		{1 << 20, "1.00 MB"},
		{float64(3) * (1 << 30), "3.00 GB"},
		{float64(2) * (1 << 40), "2.00 TB"},
	}
	for _, tc := range cases {
		if got := HumanBytes(tc.in); got != tc.want {
			t.Fatalf("HumanBytes(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1)
	tbl.AddRow("b", 2.5)
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.5") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows() = %d", tbl.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("x,y", `q"o`)
	csv := tbl.CSV()
	want := "a,b\n\"x,y\",\"q\"\"o\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{1.5, "1.5"},
		{0.25, "0.25"},
		{0.33333333, "0.3333"},
		{0, "0"},
		{-2.5, "-2.5"},
		// Negative-zero regression family: values whose digits all trim
		// away must render "0", never "-0".
		{-0.00001, "0"},
		{-0.00004, "0"},
		{math.Copysign(0, -1), "0"},
		{-0.0001, "-0.0001"},
		{3, "3"},
		{-3, "-3"},
	}
	for _, tc := range cases {
		if got := trimFloat(tc.in); got != tc.want {
			t.Fatalf("trimFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// Regression: AddRow with more cells than Columns used to pass width
// computation (guarded) but panic in writeRow's unguarded widths[i]; rows
// are now clamped to the column count, and short rows pad out.
func TestTableRowWidthMismatch(t *testing.T) {
	tbl := NewTable("mismatch", "a", "b")
	tbl.AddRow("x", "y", "EXTRA") // one cell too many
	tbl.AddRow("solo")            // one cell short
	out := tbl.String()           // must not panic
	if strings.Contains(out, "EXTRA") {
		t.Fatalf("over-wide cell leaked into output:\n%s", out)
	}
	if !strings.Contains(out, "solo") {
		t.Fatalf("short row lost:\n%s", out)
	}
	csv := tbl.CSV() // must not panic either
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV rows = %d, want 3:\n%s", len(lines), csv)
	}
	// Every CSV row has exactly the column count worth of cells.
	for _, line := range lines {
		if got := strings.Count(line, ","); got != 1 {
			t.Fatalf("row %q has %d commas, want 1", line, got)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("ici.retrieve.rounds").Add(3)
	r.Counter("ici.retrieve.rounds").Inc() // same instrument by name
	r.Counter("consensus.votes").Inc()

	if got := r.Counter("ici.retrieve.rounds").Value(); got != 4 {
		t.Fatalf("shared counter = %d, want 4", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["ici.retrieve.rounds"] != 4 || snap["consensus.votes"] != 1 {
		t.Fatalf("Snapshot() = %v", snap)
	}
	if got, want := r.JSON(), "{\n  \"consensus.votes\": 1,\n  \"ici.retrieve.rounds\": 4\n}\n"; got != want {
		t.Fatalf("JSON() = %q, want %q", got, want)
	}
}

func TestRegistryNil(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc() // throwaway, must not panic
	if r.Snapshot() != nil {
		t.Fatal("nil registry should enumerate nothing")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared = %d, want 8000", got)
	}
}
