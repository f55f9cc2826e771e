package contest

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/workload"
)

// Runner executes a parsed Scenario against real icinet processes.
type Runner struct {
	IcinetPath string        // path to the icinet binary (required)
	WorkDir    string        // scratch dir; "" → a temp dir removed afterwards
	Out        io.Writer     // narration stream; nil → discarded
	Verbose    bool          // mirror each node's stderr into Out
	Timeout    time.Duration // whole-run budget; 0 → defaultRunTimeout
}

const (
	defaultRunTimeout = 5 * time.Minute
	// defaultActionWait bounds readiness and wait-log unless the action
	// carries its own timeout= option.
	defaultActionWait = 10 * time.Second
	// teardownGrace is how long teardown gives each node to honor SIGTERM
	// before escalating to SIGKILL.
	teardownGrace = 3 * time.Second
)

// node is the runtime state of one scenario member. addr and stateDir are
// fixed for the scenario's lifetime so a restarted process rebinds the same
// port and finds its restart marker; cmd/watchers are per-run.
type node struct {
	def      *NodeDef
	addr     string
	gwAddr   string // read-gateway listen address; "" unless def.Gateway
	stateDir string

	cmd     *exec.Cmd
	stdout  *logWatcher
	stderr  *logWatcher
	done    chan struct{} // closed once Wait returns
	waitErr error         // valid after done is closed
	up      bool
	runs    int
}

// run carries the mutable state of one scenario execution.
type run struct {
	rn       *Runner
	sc       *Scenario
	out      io.Writer
	dir      string
	deadline time.Time
	nodes    map[string]*node
	order    []*node // id order: index i is placement id i

	// Chain state shared across distribute / assert-retrieve actions: one
	// builder per run so successive distributes extend the same chain.
	builder *workload.ChainBuilder
	blocks  []*chain.Block
}

var readyRe = regexp.MustCompile(`^ICINET READY addr=(\S+)(?: gateway=(\S+))?$`)

// Run executes the scenario: allocates every member's address up front,
// walks the stages in order, and tears all surviving processes down before
// returning. The returned error carries the failing stage, action, and
// source position.
func (rn *Runner) Run(sc *Scenario) (err error) {
	if rn.IcinetPath == "" {
		return errors.New("contest: Runner.IcinetPath is required")
	}
	out := rn.Out
	if out == nil {
		out = io.Discard
	}
	dir := rn.WorkDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "contest-"+sc.Name+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	timeout := rn.Timeout
	if timeout == 0 {
		timeout = defaultRunTimeout
	}
	x := &run{
		rn:       rn,
		sc:       sc,
		out:      out,
		dir:      dir,
		deadline: time.Now().Add(timeout),
		nodes:    make(map[string]*node, len(sc.Nodes)),
	}
	// Addresses are allocated before anything starts: every -members list
	// must be complete up front, and a crashed member must rebind its
	// original port when restarted.
	ports, err := freePorts(2 * len(sc.Nodes)) // a serving port each, and room for a gateway's
	if err != nil {
		return fmt.Errorf("contest: allocate ports: %w", err)
	}
	for i, nd := range sc.Nodes {
		n := &node{
			def:      nd,
			addr:     fmt.Sprintf("127.0.0.1:%d", ports[2*i]),
			stateDir: filepath.Join(dir, nd.Name),
		}
		if nd.Gateway {
			n.gwAddr = fmt.Sprintf("127.0.0.1:%d", ports[2*i+1])
		}
		if err := os.MkdirAll(n.stateDir, 0o755); err != nil {
			return fmt.Errorf("contest: state dir for %s: %w", nd.Name, err)
		}
		x.nodes[nd.Name] = n
		x.order = append(x.order, n)
	}
	fmt.Fprintf(out, "scenario %s: %d nodes, %d stages, replication %d\n",
		sc.Name, len(sc.Nodes), len(sc.Stages), sc.Replication)
	defer x.teardown()
	for _, st := range sc.Stages {
		fmt.Fprintf(out, "stage %s\n", st.Name)
		for _, a := range st.Actions {
			if err := x.exec(a); err != nil {
				x.dumpLogs()
				return fmt.Errorf("scenario %s: stage %s: %s (%s:%d): %w",
					sc.Name, st.Name, a.Verb, sc.File, a.Line, err)
			}
		}
	}
	fmt.Fprintf(out, "scenario %s: PASS\n", sc.Name)
	return nil
}

// freePorts reserves n distinct ephemeral localhost ports and releases them
// for the node processes to rebind. Every listener stays open until the last
// port is claimed — released one by one, the kernel may hand the same port
// out twice, and two members then share an address. The claim/rebind window
// that remains is acceptable for a loopback test harness.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// memberAddrs lists every node's address in placement-id order — the
// -members value each process receives.
func (x *run) memberAddrs() []string {
	addrs := make([]string, len(x.order))
	for i, n := range x.order {
		addrs[i] = n.addr
	}
	return addrs
}

// within converts a relative wait into an absolute deadline clamped to the
// run's overall budget.
func (x *run) within(d time.Duration) time.Time {
	t := time.Now().Add(d)
	if t.After(x.deadline) {
		return x.deadline
	}
	return t
}

// lookupNode resolves a node name used by an action.
func (x *run) lookupNode(name string) (*node, error) {
	n, ok := x.nodes[name]
	if !ok {
		return nil, fmt.Errorf("unknown node %q", name)
	}
	return n, nil
}

// startNode launches one icinet -serve process and blocks until its
// readiness line appears (or it exits / the timeout passes).
func (x *run) startNode(n *node, timeout time.Duration) error {
	if n.up {
		return fmt.Errorf("node %s is already running", n.def.Name)
	}
	args := []string{
		"-serve",
		"-listen", n.addr,
		"-members", strings.Join(x.memberAddrs(), ","),
		"-replication", strconv.Itoa(x.sc.Replication),
		"-state", n.stateDir,
		"-resync", n.def.Resync,
	}
	if n.def.Chaos {
		args = append(args, "-chaos")
	}
	if n.def.Gateway {
		args = append(args, "-gateway", n.gwAddr)
	}
	cmd := exec.Command(x.rn.IcinetPath, args...)
	var echo io.Writer
	if x.rn.Verbose {
		echo = x.out
	}
	// The watchers are the process's stdout/stderr writers directly, so
	// cmd.Wait returns only after every byte reached them: once done is
	// closed the buffers are complete (no pipe-drain race on crash).
	stdout := newLogWatcher(nil, "")
	stderr := newLogWatcher(echo, "    "+n.def.Name+"| ")
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %s: %w", n.def.Name, err)
	}
	n.cmd = cmd
	n.stdout = stdout
	n.stderr = stderr
	done := make(chan struct{})
	go func() {
		n.waitErr = cmd.Wait()
		stdout.closeWatch()
		stderr.closeWatch()
		close(done)
	}()
	n.done = done

	line, err := n.stdout.WaitMatch(readyRe, x.within(timeout))
	if err != nil {
		select {
		case <-n.done:
			return fmt.Errorf("node %s exited during startup (%v); stderr: %s",
				n.def.Name, n.waitErr, strings.Join(n.stderr.Tail(5), " | "))
		default:
		}
		_ = cmd.Process.Kill()
		<-n.done
		return fmt.Errorf("node %s: %w", n.def.Name, err)
	}
	m := readyRe.FindStringSubmatch(line)
	if m[1] != n.addr {
		_ = cmd.Process.Kill()
		<-n.done
		return fmt.Errorf("node %s reported addr %s, expected %s", n.def.Name, m[1], n.addr)
	}
	if n.def.Gateway && m[2] != n.gwAddr {
		_ = cmd.Process.Kill()
		<-n.done
		return fmt.Errorf("node %s reported gateway %q, expected %s", n.def.Name, m[2], n.gwAddr)
	}
	n.up = true
	n.runs++
	fmt.Fprintf(x.out, "  started %s id=%d addr=%s pid=%d run=%d\n",
		n.def.Name, n.def.ID, n.addr, cmd.Process.Pid, n.runs)
	return nil
}

// stopNode sends SIGTERM and requires a clean exit — the graceful-shutdown
// contract every scenario re-proves on the way out.
func (x *run) stopNode(n *node, timeout time.Duration) error {
	if !n.up {
		return fmt.Errorf("node %s is not running", n.def.Name)
	}
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal node %s: %w", n.def.Name, err)
	}
	select {
	case <-n.done:
	case <-time.After(time.Until(x.within(timeout))):
		_ = n.cmd.Process.Kill()
		<-n.done
		n.up = false
		return fmt.Errorf("node %s ignored SIGTERM for %s", n.def.Name, timeout)
	}
	n.up = false
	if n.waitErr != nil {
		return fmt.Errorf("node %s exited uncleanly after SIGTERM: %v; stderr: %s",
			n.def.Name, n.waitErr, strings.Join(n.stderr.Tail(5), " | "))
	}
	fmt.Fprintf(x.out, "  stopped %s cleanly\n", n.def.Name)
	return nil
}

// killNode crashes the process with SIGKILL — no drain, no state flush.
func (x *run) killNode(n *node) error {
	if !n.up {
		return fmt.Errorf("node %s is not running", n.def.Name)
	}
	if err := n.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("kill node %s: %w", n.def.Name, err)
	}
	<-n.done
	n.up = false
	fmt.Fprintf(x.out, "  killed %s\n", n.def.Name)
	return nil
}

// teardown stops every surviving process in reverse start order: SIGTERM,
// a short grace, then SIGKILL. Runs on every exit path.
func (x *run) teardown() {
	for i := len(x.order) - 1; i >= 0; i-- {
		n := x.order[i]
		if !n.up {
			continue
		}
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-n.done:
		case <-time.After(teardownGrace):
			_ = n.cmd.Process.Kill()
			<-n.done
			fmt.Fprintf(x.out, "  teardown: %s needed SIGKILL\n", n.def.Name)
		}
		n.up = false
	}
}

// dumpLogs appends each node's recent stderr to the narration on failure.
func (x *run) dumpLogs() {
	for _, n := range x.order {
		if n.stderr == nil {
			continue
		}
		tail := n.stderr.Tail(15)
		if len(tail) == 0 {
			continue
		}
		fmt.Fprintf(x.out, "  -- %s stderr tail --\n", n.def.Name)
		for _, l := range tail {
			fmt.Fprintf(x.out, "    %s\n", l)
		}
	}
}

// expandAction returns a copy of a with `${...}` templates resolved in every
// positional argument and option value.
func (x *run) expandAction(a *Action) (*Action, error) {
	lookup := func(name string) (string, bool) {
		if v, ok := x.sc.Vars[name]; ok {
			return v, true
		}
		switch name {
		case "scenario.name":
			return x.sc.Name, true
		case "scenario.dir":
			return x.dir, true
		}
		if rest, ok := strings.CutPrefix(name, "node."); ok {
			nodeName, field, ok := strings.Cut(rest, ".")
			if !ok {
				return "", false
			}
			n, found := x.nodes[nodeName]
			if !found {
				return "", false
			}
			switch field {
			case "addr":
				return n.addr, true
			case "id":
				return strconv.Itoa(n.def.ID), true
			case "state":
				return n.stateDir, true
			case "gateway":
				if n.gwAddr == "" {
					return "", false
				}
				return n.gwAddr, true
			}
		}
		return "", false
	}
	out := &Action{Verb: a.Verb, Line: a.Line, Opts: make(map[string]string, len(a.Opts))}
	for _, arg := range a.Args {
		v, err := expandTemplate(arg, lookup)
		if err != nil {
			return nil, err
		}
		out.Args = append(out.Args, v)
	}
	for k, raw := range a.Opts {
		v, err := expandTemplate(raw, lookup)
		if err != nil {
			return nil, err
		}
		out.Opts[k] = v
	}
	return out, nil
}
