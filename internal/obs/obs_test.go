package obs

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"icistrategy/internal/trace"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestSetupRejectsBadTraceMode(t *testing.T) {
	f := parse(t, "-trace", "verbose")
	if err := f.Setup(); err == nil {
		t.Fatal("Setup accepted -trace verbose")
	}
}

func TestDisabledByDefault(t *testing.T) {
	f := parse(t)
	if err := f.Setup(); err != nil {
		t.Fatal(err)
	}
	if f.Tracer() != nil {
		t.Error("tracer should be nil (no-op) without -trace")
	}
	if f.Registry() == nil {
		t.Error("registry must always exist")
	}
	if f.ring != nil {
		t.Error("no trace ring without -trace")
	}
	var out strings.Builder
	if err := f.Finish(&out, nil); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("Finish wrote output with everything disabled: %q", out.String())
	}
}

// TestTraceClockAdvances: the tracer -trace builds reads wall time, so a
// command's TCP spans have real durations (trace.New alone reads 0 until a
// clock is installed).
func TestTraceClockAdvances(t *testing.T) {
	f := parse(t, "-trace", "summary")
	if err := f.Setup(); err != nil {
		t.Fatal(err)
	}
	sp := f.Tracer().Start(0, "netx", "op", -1)
	time.Sleep(time.Millisecond)
	sp.End()
	evs := f.ring.Events()
	if len(evs) != 1 || evs[0].End <= evs[0].Start {
		t.Fatalf("-trace clock did not advance: %+v", evs)
	}
}

func TestFinishWritesSummaryTreeAndMetrics(t *testing.T) {
	f := parse(t, "-trace", "tree", "-metrics", "-")
	if err := f.Setup(); err != nil {
		t.Fatal(err)
	}
	tr := f.Tracer()
	if tr == nil {
		t.Fatal("tracer must exist with -trace")
	}
	sp := tr.Start(0, "demo", "op", 1)
	sp.AddBytes(100)
	sp.End()
	f.Registry().Counter("demo.ops").Inc()

	if n := len(f.ring.Events()); n == 0 {
		t.Fatal("no events recorded")
	}
	var out strings.Builder
	err := f.Finish(&out, func(events []trace.Event) string {
		if len(events) == 0 {
			t.Error("summarize called with no events")
		}
		return "SUMMARY-MARKER"
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"SUMMARY-MARKER", "op", `"demo.ops": 1`} {
		if !strings.Contains(got, want) {
			t.Errorf("Finish output missing %q:\n%s", want, got)
		}
	}
}

func TestPprofOffByDefault(t *testing.T) {
	f := parse(t)
	if err := f.Setup(); err != nil {
		t.Fatal(err)
	}
	if addr := f.PprofAddr(); addr != "" {
		t.Fatalf("pprof server bound to %s without -pprof", addr)
	}
}

func TestPprofServesMetricsJSON(t *testing.T) {
	f := parse(t, "-pprof", "127.0.0.1:0")
	if err := f.Setup(); err != nil {
		t.Fatal(err)
	}
	addr := f.PprofAddr()
	if addr == "" {
		t.Fatal("-pprof did not bind a listener")
	}
	f.Registry().Counter("ici.test.pings").Inc()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]float64
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, body)
	}
	if snap["ici.test.pings"] != 1 {
		t.Fatalf("counter missing from /metrics: %v", snap)
	}
}
