package contest

import (
	"fmt"
	"regexp"
	"strconv"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/gateway"
	"icistrategy/internal/netx"
	"icistrategy/internal/workload"
)

// Defaults for the distribute action's workload.
const (
	defaultBlocks       = 2
	defaultTxPerBlock   = 20
	defaultSeed         = 42
	workloadAccounts    = 50
	workloadPayloadSize = 32
	chainGasLimit       = 10_000
)

// assertLogSettle bounds how long assert-log waits for a line that was
// written before the action started to travel the child's stderr pipe. It is
// a delivery allowance, not a wait for the event to happen (that is
// wait-log), and the scenario deadline caps it.
const assertLogSettle = 2 * time.Second

// exec runs one scripted action after template expansion.
func (x *run) exec(raw *Action) error {
	a, err := x.expandAction(raw)
	if err != nil {
		return err
	}
	switch a.Verb {
	case "start", "restart":
		timeout, err := optDuration(a, "timeout", defaultActionWait)
		if err != nil {
			return err
		}
		for _, name := range a.Args {
			n, err := x.lookupNode(name)
			if err != nil {
				return err
			}
			if err := x.startNode(n, timeout); err != nil {
				return err
			}
		}
		return nil
	case "stop":
		timeout, err := optDuration(a, "timeout", defaultActionWait)
		if err != nil {
			return err
		}
		for _, name := range a.Args {
			n, err := x.lookupNode(name)
			if err != nil {
				return err
			}
			if err := x.stopNode(n, timeout); err != nil {
				return err
			}
		}
		return nil
	case "kill":
		for _, name := range a.Args {
			n, err := x.lookupNode(name)
			if err != nil {
				return err
			}
			if err := x.killNode(n); err != nil {
				return err
			}
		}
		return nil
	case "wait-log":
		n, re, err := x.logTarget(a)
		if err != nil {
			return err
		}
		timeout, err := optDuration(a, "timeout", defaultActionWait)
		if err != nil {
			return err
		}
		line, err := n.stderr.WaitMatch(re, x.within(timeout))
		if err != nil {
			return fmt.Errorf("node %s: %w", n.def.Name, err)
		}
		fmt.Fprintf(x.out, "  wait-log %s matched: %s\n", n.def.Name, line)
		return nil
	case "assert-log":
		n, re, err := x.logTarget(a)
		if err != nil {
			return err
		}
		// The child's stderr pipe is read asynchronously: a line the server
		// wrote before it acknowledged the previous action may not have
		// reached the watcher yet, so an instantaneous look races pipe
		// delivery. Give it a short bounded settle instead.
		if _, err := n.stderr.WaitMatch(re, x.within(assertLogSettle)); err != nil {
			return fmt.Errorf("node %s: no log line matches %q", n.def.Name, re)
		}
		return nil
	case "sleep":
		d, err := time.ParseDuration(a.Args[0])
		if err != nil {
			return fmt.Errorf("sleep: %w", err)
		}
		if until := time.Until(x.deadline); d > until {
			d = until
		}
		time.Sleep(d)
		return nil
	case "distribute":
		return x.distribute(a)
	case "bootstrap-member":
		return x.bootstrapMember(a)
	case "retire-member":
		return x.churnMember(a, "retire")
	case "rejoin-member":
		return x.churnMember(a, "rejoin")
	case "inject-fault":
		return x.injectFault(a)
	case "assert-stats":
		return x.assertStats(a)
	case "assert-retrieve":
		return x.assertRetrieve(a)
	case "assert-down":
		for _, name := range a.Args {
			if err := x.assertLiveness(name, false); err != nil {
				return err
			}
		}
		return nil
	case "assert-up":
		for _, name := range a.Args {
			if err := x.assertLiveness(name, true); err != nil {
				return err
			}
		}
		return nil
	default:
		// Unreachable for parsed scenarios; guards hand-built Actions.
		return fmt.Errorf("unknown action %q", a.Verb)
	}
}

// logTarget resolves the node and compiled pattern of a *-log action.
func (x *run) logTarget(a *Action) (*node, *regexp.Regexp, error) {
	n, err := x.lookupNode(a.Args[0])
	if err != nil {
		return nil, nil, err
	}
	if n.stderr == nil {
		return nil, nil, fmt.Errorf("node %s was never started", n.def.Name)
	}
	re, err := regexp.Compile(a.Args[1])
	if err != nil {
		return nil, nil, fmt.Errorf("bad pattern %q: %w", a.Args[1], err)
	}
	return n, re, nil
}

// viaCluster builds a cluster client over the nodes named in via=
// (netx.NewCluster). Until a membership change is published they are the
// genesis membership, node i being placement identity i, and a read names
// them too, stopped members included, and plans around them. Once a cluster
// map is published, the client adopts it when it is built: via= then only
// has to reach its members, in any order, and writes, reads and churn go by
// the map's identities.
func (x *run) viaCluster(a *Action) (*netx.Cluster, error) {
	names := splitList(a.Opts["via"])
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: empty via= list", a.Verb)
	}
	addrs := make([]string, len(names))
	for i, nm := range names {
		n, err := x.lookupNode(nm)
		if err != nil {
			return nil, err
		}
		addrs[i] = n.addr
	}
	repl := x.sc.Replication
	if repl > len(addrs) {
		repl = len(addrs)
	}
	return netx.NewCluster(addrs, repl)
}

// distribute generates workload blocks and stores them across the cluster
// with the production placement path. Successive distributes extend the
// same chain, and every distributed block is retained for assert-retrieve.
func (x *run) distribute(a *Action) error {
	blocks, err := optInt(a, "blocks", defaultBlocks)
	if err != nil {
		return err
	}
	tx, err := optInt(a, "tx", defaultTxPerBlock)
	if err != nil {
		return err
	}
	seed, err := optInt(a, "seed", defaultSeed)
	if err != nil {
		return err
	}
	if x.builder == nil {
		gen, err := workload.NewGenerator(workload.Config{
			Accounts:     workloadAccounts,
			PayloadBytes: workloadPayloadSize,
			Seed:         uint64(seed),
		})
		if err != nil {
			return err
		}
		x.builder, err = workload.NewChainBuilder(gen, chainGasLimit)
		if err != nil {
			return err
		}
	}
	cl, err := x.viaCluster(a)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < blocks; i++ {
		b, err := x.builder.NextBlock(tx)
		if err != nil {
			return err
		}
		if err := cl.DistributeBlock(b); err != nil {
			return fmt.Errorf("distribute block %d: %w", len(x.blocks), err)
		}
		x.blocks = append(x.blocks, b)
	}
	fmt.Fprintf(x.out, "  distributed %d blocks (%d total) via %s\n",
		blocks, len(x.blocks), a.Opts["via"])
	return nil
}

// bootstrapMember drives the cluster-side membership growth: the via=
// members are the existing cluster, node= the address being added, and the
// production netx bootstrap path moves every chunk the newcomer owns under
// the grown membership.
func (x *run) bootstrapMember(a *Action) error {
	target, err := x.lookupNode(a.Opts["node"])
	if err != nil {
		return err
	}
	min, err := optInt(a, "min", 1)
	if err != nil {
		return err
	}
	cl, err := x.viaCluster(a)
	if err != nil {
		return err
	}
	defer cl.Close()
	n, err := cl.BootstrapNewMember(target.addr)
	if err != nil {
		return fmt.Errorf("bootstrap %s: %w", target.def.Name, err)
	}
	if n < min {
		return fmt.Errorf("bootstrap %s moved %d chunks, want at least %d", target.def.Name, n, min)
	}
	fmt.Fprintf(x.out, "  bootstrapped %s with %d chunks\n", target.def.Name, n)
	return nil
}

// churnMember drives graceful membership churn over the production netx
// paths, on the cluster map the via= client holds (viaCluster). retire
// has the members that stay pull the node's chunks and publishes the
// current epoch without it; rejoin re-provisions the returning node, under
// the identity it left with, against each block's write epoch and publishes
// the current epoch with it.
func (x *run) churnMember(a *Action, kind string) error {
	target, err := x.lookupNode(a.Opts["node"])
	if err != nil {
		return err
	}
	min, err := optInt(a, "min", 1)
	if err != nil {
		return err
	}
	cl, err := x.viaCluster(a)
	if err != nil {
		return err
	}
	defer cl.Close()
	var n int
	if kind == "retire" {
		n, err = cl.RetireMember(target.addr)
	} else {
		n, err = cl.RejoinMember(target.addr)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", a.Verb, target.def.Name, err)
	}
	if n < min {
		return fmt.Errorf("%s %s moved %d chunks, want at least %d", a.Verb, target.def.Name, n, min)
	}
	past := "retired"
	if kind == "rejoin" {
		past = "rejoined"
	}
	fmt.Fprintf(x.out, "  %s %s, %d chunks moved\n", past, target.def.Name, n)
	return nil
}

// injectFault sends a chaos control op to one node (which must run with
// chaos=true). Kinds map onto the netx fault vocabulary: corrupt-stored
// flips a byte in every stored chunk; drop/delay/corrupt-wire install a
// request-level fault config; clear removes it.
func (x *run) injectFault(a *Action) error {
	n, err := x.lookupNode(a.Args[0])
	if err != nil {
		return err
	}
	c, err := netx.Dial(n.addr)
	if err != nil {
		return fmt.Errorf("inject-fault %s: %w", n.def.Name, err)
	}
	defer c.Close()
	var req netx.FaultReq
	kind := a.Opts["kind"]
	switch kind {
	case "corrupt-stored":
		req.CorruptStored = true
	case "drop":
		rate, err := optFloat(a, "rate", 1)
		if err != nil {
			return err
		}
		seed, err := optInt(a, "seed", 1)
		if err != nil {
			return err
		}
		req.Set = &netx.FaultConfig{DropRate: rate, Seed: uint64(seed)}
	case "delay":
		d, err := optDuration(a, "delay", 20*time.Millisecond)
		if err != nil {
			return err
		}
		req.Set = &netx.FaultConfig{Delay: d}
	case "corrupt-wire":
		rate, err := optFloat(a, "rate", 1)
		if err != nil {
			return err
		}
		seed, err := optInt(a, "seed", 1)
		if err != nil {
			return err
		}
		req.Set = &netx.FaultConfig{CorruptRate: rate, Seed: uint64(seed)}
	case "clear":
		req.Set = &netx.FaultConfig{}
	default:
		return fmt.Errorf("inject-fault: unknown kind %q", kind)
	}
	resp, err := c.InjectFault(req)
	if err != nil {
		return fmt.Errorf("inject-fault %s %s: %w", n.def.Name, kind, err)
	}
	if kind == "corrupt-stored" {
		min, err := optInt(a, "min", 1)
		if err != nil {
			return err
		}
		if resp.Corrupted < min {
			return fmt.Errorf("inject-fault %s corrupted %d chunks, want at least %d",
				n.def.Name, resp.Corrupted, min)
		}
	}
	fmt.Fprintf(x.out, "  injected %s into %s (corrupted=%d)\n", kind, n.def.Name, resp.Corrupted)
	return nil
}

// assertStats fetches one node's storage accounting and compares a field
// against a literal: assert-stats NODE FIELD OP VALUE.
func (x *run) assertStats(a *Action) error {
	n, err := x.lookupNode(a.Args[0])
	if err != nil {
		return err
	}
	field, op, valStr := a.Args[1], a.Args[2], a.Args[3]
	want, err := strconv.ParseInt(valStr, 10, 64)
	if err != nil {
		return fmt.Errorf("assert-stats: bad value %q: %w", valStr, err)
	}
	c, err := netx.Dial(n.addr)
	if err != nil {
		return fmt.Errorf("assert-stats %s: %w", n.def.Name, err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("assert-stats %s: %w", n.def.Name, err)
	}
	var got int64
	switch field {
	case "headers":
		got = st.HeaderCount
	case "chunks":
		got = st.ChunkCount
	case "header-bytes":
		got = st.HeaderBytes
	case "chunk-bytes":
		got = st.ChunkBytes
	default:
		return fmt.Errorf("assert-stats: unknown field %q", field)
	}
	ok, err := compareInt(got, op, want)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("assert-stats %s: %s = %d, want %s %d", n.def.Name, field, got, op, want)
	}
	fmt.Fprintf(x.out, "  assert-stats %s: %s %s %d holds (got %d)\n", n.def.Name, field, op, want, got)
	return nil
}

// assertRetrieve reassembles a previously distributed block, requiring
// success or (expect=fail) a verification-level refusal. With via= it reads
// directly through the member cluster path; with gateway=NODE it reads
// through that node's client gateway (which must run with gateway=true),
// also fetching and verifying a light-client proof for one transaction. A
// retrieved block must carry exactly the transactions the original did.
func (x *run) assertRetrieve(a *Action) error {
	idx, err := optInt(a, "block", 0)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= len(x.blocks) {
		return fmt.Errorf("assert-retrieve: block %d not distributed (have %d)", idx, len(x.blocks))
	}
	expect := a.Opts["expect"]
	if expect == "" {
		expect = "ok"
	}
	orig := x.blocks[idx]

	var got *chain.Block
	var via string
	if gwName := a.Opts["gateway"]; gwName != "" {
		via = "gateway " + gwName
		got, err = x.gatewayRetrieve(gwName, orig, expect == "ok")
	} else {
		via = a.Opts["via"]
		var cl *netx.Cluster
		cl, err = x.viaCluster(a)
		if err != nil {
			return err
		}
		defer cl.Close()
		got, err = cl.RetrieveBlock(orig.Header)
	}
	switch expect {
	case "ok":
		if err != nil {
			return fmt.Errorf("assert-retrieve block %d: %w", idx, err)
		}
		if len(got.Txs) != len(orig.Txs) {
			return fmt.Errorf("assert-retrieve block %d: %d txs, want %d", idx, len(got.Txs), len(orig.Txs))
		}
		fmt.Fprintf(x.out, "  retrieved block %d (%d txs, verified) via %s\n",
			idx, len(got.Txs), via)
		return nil
	case "fail":
		if err == nil {
			return fmt.Errorf("assert-retrieve block %d: unexpectedly succeeded", idx)
		}
		fmt.Fprintf(x.out, "  retrieve of block %d failed as expected: %v\n", idx, err)
		return nil
	default:
		return fmt.Errorf("assert-retrieve: expect must be ok or fail, got %q", expect)
	}
}

// gatewayRetrieve reads one block through a node's client gateway; when the
// read is expected to succeed it also round-trips a Merkle proof for the
// block's middle transaction (the gateway client re-verifies it).
func (x *run) gatewayRetrieve(name string, orig *chain.Block, withProof bool) (*chain.Block, error) {
	n, err := x.lookupNode(name)
	if err != nil {
		return nil, err
	}
	if n.gwAddr == "" {
		return nil, fmt.Errorf("node %s does not declare gateway=true", name)
	}
	c, err := gateway.DialClient(n.gwAddr)
	if err != nil {
		return nil, fmt.Errorf("dial gateway %s: %w", name, err)
	}
	defer c.Close()
	got, err := c.GetBlock(orig.Hash())
	if err != nil {
		return nil, err
	}
	if !withProof || len(orig.Txs) == 0 {
		return got, nil
	}
	tx := orig.Txs[len(orig.Txs)/2]
	p, err := c.GetTxProof(orig.Hash(), tx.ID())
	if err != nil {
		return nil, fmt.Errorf("gateway proof: %w", err)
	}
	if p.Tx.ID() != tx.ID() {
		return nil, fmt.Errorf("gateway proof: proved tx %s, want %s", p.Tx.ID().Short(), tx.ID().Short())
	}
	return got, nil
}

// assertLiveness checks whether a node's listener answers a stats
// round-trip, matching the assert-up / assert-down verbs.
func (x *run) assertLiveness(name string, wantUp bool) error {
	n, err := x.lookupNode(name)
	if err != nil {
		return err
	}
	c, err := netx.Dial(n.addr)
	if err == nil {
		defer c.Close()
		_, err = c.Stats()
	}
	up := err == nil
	if up != wantUp {
		if wantUp {
			return fmt.Errorf("assert-up %s: not serving: %v", n.def.Name, err)
		}
		return fmt.Errorf("assert-down %s: still serving", n.def.Name)
	}
	return nil
}

// Option parsing helpers: each reads a typed key=value with a default.

func optDuration(a *Action, key string, def time.Duration) (time.Duration, error) {
	v, ok := a.Opts[key]
	if !ok {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("%s: bad %s %q: %w", a.Verb, key, v, err)
	}
	return d, nil
}

func optInt(a *Action, key string, def int) (int, error) {
	v, ok := a.Opts[key]
	if !ok {
		return def, nil
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s: bad %s %q: %w", a.Verb, key, v, err)
	}
	return i, nil
}

func optFloat(a *Action, key string, def float64) (float64, error) {
	v, ok := a.Opts[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad %s %q: %w", a.Verb, key, v, err)
	}
	return f, nil
}

// compareInt evaluates `got OP want` for the assert-stats operators.
func compareInt(got int64, op string, want int64) (bool, error) {
	switch op {
	case "==":
		return got == want, nil
	case "!=":
		return got != want, nil
	case "<":
		return got < want, nil
	case "<=":
		return got <= want, nil
	case ">":
		return got > want, nil
	case ">=":
		return got >= want, nil
	default:
		return false, fmt.Errorf("assert-stats: unknown operator %q", op)
	}
}
