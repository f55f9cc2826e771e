// Package obs wires the observability subsystem (internal/trace spans plus
// the metrics.Registry counters) into command-line tools. Every command
// registers the same three flags:
//
//	-trace MODE   record protocol traces; MODE is "summary" (per-phase
//	              byte/latency table at exit) or "tree" (summary plus the
//	              full span forest)
//	-metrics DEST write the expvar-style JSON dump of every protocol
//	              counter at exit; DEST is a file path or "-" for stdout
//	-pprof ADDR   serve net/http/pprof plus a /metrics JSON endpoint on
//	              ADDR (e.g. "localhost:6060") for the run's duration
//
// With none of the flags set, tracing stays disabled (nil tracer: span
// calls are no-ops) and only the always-cheap atomic counters run.
package obs

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers its handlers on DefaultServeMux
	"os"
	"time"

	"icistrategy/internal/metrics"
	"icistrategy/internal/trace"
)

// ringCapacity bounds the in-memory trace buffer; older events are evicted
// first (the summary notes when eviction happened).
const ringCapacity = 1 << 18

// Flags holds the parsed observability options of one command.
type Flags struct {
	traceMode  *string
	metricsOut *string
	pprofAddr  *string

	ring *trace.Ring
	tr   *trace.Tracer
	reg  *metrics.Registry

	pprofBound string // actual listen address once the pprof server is up
}

// Register adds the -trace/-metrics/-pprof flags to fs. Call Setup after
// fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.traceMode = fs.String("trace", "", `record protocol traces: "summary" or "tree"`)
	f.metricsOut = fs.String("metrics", "", `write protocol counters as JSON at exit (file path or "-")`)
	f.pprofAddr = fs.String("pprof", "", `serve net/http/pprof and /metrics on this address`)
	return f
}

// Setup validates the flags, builds the recorder, and starts the pprof
// server if requested.
func (f *Flags) Setup() error {
	switch *f.traceMode {
	case "", "summary", "tree":
	default:
		return fmt.Errorf(`obs: -trace must be "summary" or "tree", got %q`, *f.traceMode)
	}
	f.reg = metrics.NewRegistry()
	if *f.traceMode != "" {
		f.ring = trace.NewRing(ringCapacity)
		f.tr = trace.New(f.ring)
		start := time.Now()
		f.tr.SetClock(func() time.Duration { return time.Since(start) })
	}
	if *f.pprofAddr != "" {
		mux := http.DefaultServeMux // pprof already registered here
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, f.reg.JSON())
		})
		srv := &http.Server{Addr: *f.pprofAddr, Handler: mux}
		ln, err := net.Listen("tcp", *f.pprofAddr)
		if err != nil {
			return fmt.Errorf("obs: pprof listen: %w", err)
		}
		f.pprofBound = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "obs: pprof and /metrics on http://%s\n", f.pprofBound)
		go func() { _ = srv.Serve(ln) }()
	}
	return nil
}

// Tracer returns the run's tracer; nil (a valid no-op tracer) when -trace
// was not given.
func (f *Flags) Tracer() *trace.Tracer { return f.tr }

// PprofAddr returns the bound pprof/metrics listen address, or "" when
// -pprof was not given (the default: no debug server runs).
func (f *Flags) PprofAddr() string { return f.pprofBound }

// Registry returns the run's counter registry (never nil after Setup).
func (f *Flags) Registry() *metrics.Registry { return f.reg }

// Finish writes the end-of-run artifacts to w: the per-phase trace summary
// (and optionally the span tree), then the counter dump. summarize renders
// the events into the printed summary; commands pass a closure over
// experiments.TraceSummaryTable so obs does not depend on the experiments
// package.
func (f *Flags) Finish(w io.Writer, summarize func([]trace.Event) string) error {
	if f.ring != nil {
		events := f.ring.Events()
		if len(events) == 0 {
			fmt.Fprintln(w, "[trace: no events recorded]")
		} else {
			if evicted := f.ring.Total() - uint64(len(events)); evicted > 0 {
				fmt.Fprintf(w, "[trace: ring evicted %d oldest events]\n", evicted)
			}
			fmt.Fprintln(w, summarize(events))
			if *f.traceMode == "tree" {
				fmt.Fprintln(w, trace.Tree(events))
			}
		}
	}
	if *f.metricsOut != "" {
		dump := f.reg.JSON() + "\n"
		if *f.metricsOut == "-" {
			_, err := io.WriteString(w, dump)
			return err
		}
		if err := os.WriteFile(*f.metricsOut, []byte(dump), 0o644); err != nil {
			return fmt.Errorf("obs: write metrics: %w", err)
		}
		fmt.Fprintf(w, "[metrics written to %s]\n", *f.metricsOut)
	}
	return nil
}
