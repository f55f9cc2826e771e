// icinet -serve: one long-running cluster member, the process the
// integration harness (internal/contest, cmd/icicontest) launches N of to
// drive the storage protocol over real sockets and real crashes.
//
// Contract with the harness:
//
//   - stdout: exactly one readiness line, "ICINET READY addr=..." (plus
//     " gateway=..." with -gateway), once the listener is bound and serving.
//   - identity: what the cluster map says of the member's address (the
//     genesis membership is -members, in order, until a map is published).
//   - stderr: a structured logfmt event stream (event=NAME k=v ...) the
//     harness matches wait-log / assert-log conditions against.
//   - SIGTERM/SIGINT: graceful shutdown — drain in-flight requests, emit
//     event=serve.stop, exit 0.
//   - -state DIR: the member's configuration (members, replication) is
//     persisted to DIR/member.json; a marker distinguishes first start
//     from restart so -resync auto can re-sync lost chunks from peers via
//     the netx bootstrap path.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"icistrategy/internal/experiments"
	"icistrategy/internal/gateway"
	"icistrategy/internal/netx"
	"icistrategy/internal/obs"
	"icistrategy/internal/trace"
)

// eventLog writes one logfmt line per event: event=NAME followed by
// key=value pairs, values quoted when they contain spaces or quotes. Safe
// for concurrent use (the netx server logs from handler goroutines).
type eventLog struct {
	mu sync.Mutex
	w  io.Writer
}

func newEventLog(w io.Writer) *eventLog { return &eventLog{w: w} }

// Event implements netx.Logf.
func (l *eventLog) Event(event string, kv ...any) {
	var b strings.Builder
	b.WriteString("event=")
	b.WriteString(event)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v=%s", kv[i], logfmtValue(kv[i+1]))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, b.String())
}

// logfmtValue renders one value, quoting when the bare form would be
// ambiguous to a line parser.
func logfmtValue(v any) string {
	s := fmt.Sprintf("%v", v)
	if s == "" || strings.ContainsAny(s, " \t\"=\n") {
		return strconv.Quote(s)
	}
	return s
}

// memberState is what -state DIR persists: enough for a restarted process
// to find its cluster again (flags may be omitted on restart).
type memberState struct {
	Members     []string `json:"members"`
	Replication int      `json:"replication"`
}

// memberStatePath and startedMarkerPath name the files inside -state DIR.
func memberStatePath(dir string) string   { return filepath.Join(dir, "member.json") }
func startedMarkerPath(dir string) string { return filepath.Join(dir, "started") }

// loadMemberState reads a persisted state; ok is false when none exists.
func loadMemberState(dir string) (memberState, bool, error) {
	data, err := os.ReadFile(memberStatePath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return memberState{}, false, nil
	}
	if err != nil {
		return memberState{}, false, err
	}
	var st memberState
	if err := json.Unmarshal(data, &st); err != nil {
		return memberState{}, false, fmt.Errorf("corrupt %s: %w", memberStatePath(dir), err)
	}
	return st, true, nil
}

func saveMemberState(dir string, st memberState) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(memberStatePath(dir), append(data, '\n'), 0o644)
}

// resolveResyncMode maps -resync auto onto a concrete mode using the
// restart marker: an original member's first boot has nothing to re-sync,
// a restarted one re-fetches its lost chunks.
func resolveResyncMode(mode string, restarted bool) (string, error) {
	switch mode {
	case "none", "join", "restart":
		return mode, nil
	case "auto":
		if restarted {
			return "restart", nil
		}
		return "none", nil
	default:
		return "", fmt.Errorf(`-resync must be "auto", "join", "restart" or "none", got %q`, mode)
	}
}

// selfResync bootstraps this member's store from its peers over TCP.
// In "restart" mode the membership is unchanged and the member re-fetches
// the chunks it owns under the identity the cluster map gives its address
// (netx.ResyncMember, which refuses an address the map does not list); in
// "join" mode this member is a newcomer, bootstrapped through the other
// -members under a fresh identity, and takes ownership under the grown
// membership (netx.BootstrapNewMember).
func selfResync(mode, selfAddr string, replication int, members []string) (int, error) {
	if len(members) == 0 {
		return 0, errors.New("resync: no -members configured")
	}
	switch mode {
	case "restart":
		cl, err := netx.NewCluster(members, replication)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		return cl.ResyncMember(selfAddr)
	case "join":
		peers := slices.DeleteFunc(slices.Clone(members), func(a string) bool { return a == selfAddr })
		cl, err := netx.NewCluster(peers, replication)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		return cl.BootstrapNewMember(selfAddr)
	default:
		return 0, fmt.Errorf("resync: unknown mode %q", mode)
	}
}

// resyncAttempts and resyncBackoff pace the startup bootstrap: peers in a
// scenario may come up within milliseconds of this process, so transient
// dial failures get a few retries before the node settles for serving
// whatever it has.
const (
	resyncAttempts = 5
	resyncBackoff  = 200 * time.Millisecond
)

// runServe is the -serve entry point; args excludes the -serve token.
func runServe(args []string) error {
	fs := flag.NewFlagSet("icinet -serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address")
	membersFlag := fs.String("members", "", "comma-separated member addresses, including this node: the genesis membership in placement-id order until a cluster map is published, then any members to reach")
	replication := fs.Int("replication", 2, "replication factor blocks were distributed with")
	stateDir := fs.String("state", "", "state directory: persists identity and detects restarts")
	resyncFlag := fs.String("resync", "auto", `bootstrap-from-peers at startup: "auto" (restart-resync iff the state dir shows a prior run), "join", "restart", "none"`)
	chaos := fs.Bool("chaos", false, "honor FaultReq chaos control ops (for the integration harness)")
	gatewayAddr := fs.String("gateway", "", `also serve the client read gateway on this TCP address ("" disables)`)
	gatewayCache := fs.Int64("gateway-cache", 64<<20, "per-cache byte budget for the gateway block and chunk caches")
	obsf := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obsf.Setup(); err != nil {
		return err
	}
	elog := newEventLog(os.Stderr)

	members := splitMembers(*membersFlag)

	// State directory: recover persisted identity, detect restart, record
	// this run.
	restarted := false
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			return fmt.Errorf("serve: state dir: %w", err)
		}
		prev, ok, err := loadMemberState(*stateDir)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if ok && len(members) == 0 {
			members = prev.Members
			*replication = prev.Replication
		}
		if _, err := os.Stat(startedMarkerPath(*stateDir)); err == nil {
			restarted = true
		}
	}

	mode, err := resolveResyncMode(*resyncFlag, restarted)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	srv, err := netx.NewServer(*listen)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()
	srv.SetTracer(obsf.Tracer())
	srv.SetLogf(elog.Event)
	if *chaos {
		srv.EnableChaos()
	}

	if *stateDir != "" {
		if err := saveMemberState(*stateDir, memberState{Members: members, Replication: *replication}); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if err := os.WriteFile(startedMarkerPath(*stateDir), []byte(srv.Addr()+"\n"), 0o644); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}

	// Optional read gateway: a second listener serving cached, coalesced
	// block reads and light-client proofs out of the whole cluster.
	var gsrv *gateway.Server
	if *gatewayAddr != "" {
		if len(members) == 0 {
			return errors.New("serve: -gateway requires -members")
		}
		up, err := gateway.NewClusterUpstream(members, *replication)
		if err != nil {
			return fmt.Errorf("serve: gateway upstream: %w", err)
		}
		defer up.Close()
		g, err := gateway.New(gateway.Config{
			Upstream:        up,
			BlockCacheBytes: *gatewayCache,
			ChunkCacheBytes: *gatewayCache,
			Registry:        obsf.Registry(),
		})
		if err != nil {
			return fmt.Errorf("serve: gateway: %w", err)
		}
		gsrv, err = gateway.NewServer(*gatewayAddr, g)
		if err != nil {
			return fmt.Errorf("serve: gateway listen: %w", err)
		}
		defer gsrv.Close()
	}

	// Readiness: the harness blocks on this line before acting on the node.
	if gsrv != nil {
		fmt.Printf("ICINET READY addr=%s gateway=%s\n", srv.Addr(), gsrv.Addr())
	} else {
		fmt.Printf("ICINET READY addr=%s\n", srv.Addr())
	}
	elog.Event("serve.ready", "addr", srv.Addr(), "restarted", restarted, "chaos", *chaos)
	if gsrv != nil {
		elog.Event("gateway.ready", "addr", gsrv.Addr(), "cache_bytes", *gatewayCache)
	}

	if mode != "none" {
		elog.Event("bootstrap.start", "mode", mode, "members", len(members))
		n, err := resyncWithRetry(elog, mode, srv.Addr(), *replication, members)
		if err != nil {
			// Not fatal: the node keeps serving what it has; the harness
			// asserts on bootstrap.done when a scenario requires the sync.
			elog.Event("bootstrap.failed", "mode", mode, "err", err.Error())
		} else {
			elog.Event("bootstrap.done", "mode", mode, "chunks", n)
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	sig := <-sigCh
	elog.Event("serve.signal", "signal", sig.String())
	if gsrv != nil {
		if err := gsrv.Close(); err != nil {
			elog.Event("gateway.close-error", "err", err.Error())
		}
		elog.Event("gateway.stop", "addr", gsrv.Addr())
	}
	if err := srv.Close(); err != nil {
		elog.Event("serve.close-error", "err", err.Error())
	}
	elog.Event("serve.stop", "addr", srv.Addr())
	return obsf.Finish(os.Stdout, func(events []trace.Event) string {
		return experiments.TraceSummaryTable("per-phase trace breakdown (serve)", events).String()
	})
}

// resyncWithRetry runs selfResync with a short retry loop so a node racing
// its peers out of the gate does not give up on the first refused dial.
func resyncWithRetry(elog *eventLog, mode, selfAddr string, replication int, members []string) (int, error) {
	var lastErr error
	for attempt := 1; attempt <= resyncAttempts; attempt++ {
		n, err := selfResync(mode, selfAddr, replication, members)
		if err == nil {
			return n, nil
		}
		lastErr = err
		elog.Event("bootstrap.retry", "attempt", attempt, "err", err.Error())
		time.Sleep(resyncBackoff)
	}
	return 0, lastErr
}

// splitMembers parses the comma-separated -members list.
func splitMembers(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
