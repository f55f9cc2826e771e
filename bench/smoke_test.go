package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The smoke test runs every workload, untraced and traced, at -quick scale:
// it covers the benchmark's code paths and every output check, and asserts
// no timing. Run it with `go test -C bench ./...`; the benchmark is its own
// module, so the repository's `go test ./...` does not reach it.

func quickConfig(t *testing.T, workload string, traced bool) runConfig {
	t.Helper()
	cfg, err := newRunConfig(workload, 42, 1, traced, true)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(spec, quickConfig(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join("out", "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: no span file: %v", w.Name, err)
			}
			// Each workload must bypass the layer it is meant to bypass.
			switch w.Name {
			case "tcp-read-cold":
				if v := res.Metrics["gateway.cache.hit_rate"].Value; v != 0 {
					t.Errorf("cold reads hit the gateway cache: hit rate %v", v)
				}
				if v := res.Metrics["gateway.batch.rpcs_per_read"].Value; v < 1 {
					t.Errorf("cold reads made %v upstream RPCs per read, want at least 1", v)
				}
			case "tcp-read-hot":
				if v := res.Metrics["gateway.batch.rpcs_per_read"].Value; v >= 0.05 {
					t.Errorf("hot reads went upstream: %v RPCs per read", v)
				}
			case "sim-lifecycle":
				if v := res.Metrics["gateway.batch.rpcs_per_read"].Value; v != 0 {
					t.Errorf("sim-lifecycle touched the gateway: %v", v)
				}
			}
		}
	}
}

func TestTraceSelfTimesSumToEndToEnd(t *testing.T) {
	spans := []span{
		{Name: "client", Start: 0, End: 100, ID: 1, Req: 1},
		{Name: "a", Start: 10, End: 50, ID: 2, Parent: 1, Req: 1},
		{Name: "b", Start: 30, End: 70, ID: 3, Parent: 1, Req: 1}, // overlaps a: the later start wins the overlap
		{Name: "client", Start: 200, End: 260, ID: 4, Req: 4},
	}
	byName, total := selfTimes(spans)
	if total != 160 {
		t.Fatalf("total %d, want 160", total)
	}
	if byName["a"] != 20 || byName["b"] != 40 || byName["client"] != 100 {
		t.Fatalf("self times %v, want a=20 b=40 client=100", byName)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4) == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Fatalf("quartiles %v %v, want 3.5 160", q1, q3)
	}
}

func TestCompareGolden(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "cold"}, {Name: "hot"}},
		EndToEnd: []metricSpec{
			{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "node_storage_fraction", Unit: "ratio", Better: "lower", Bound: 0.01},
		},
		PerLayer: []metricSpec{{Name: "netx.codec.encode_ns", Unit: "ns", Better: "lower"}},
	}
	var got bytes.Buffer
	pass, err := compareFiles(&got, spec, filepath.Join("testdata", "compare_a.json"), filepath.Join("testdata", "compare_b.json"))
	if err != nil {
		t.Fatal(err)
	}
	if pass {
		t.Error("a 30% throughput loss passed the comparison")
	}
	golden := filepath.Join("testdata", "compare.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("comparison table changed (UPDATE_GOLDEN=1 rewrites it):\n%s", got.String())
	}
}
