package simnet

import (
	"fmt"
	"strings"
	"time"

	"icistrategy/internal/blockcrypto"
)

// This file is the chaos layer of the simulator: probabilistic message
// loss, duplication, reordering and payload corruption, plus scheduled
// crash/restart scripts. Every random decision flows from one seeded RNG
// consumed in Send order, so a chaos run with a given seed and fault
// configuration is exactly as replayable as a clean run.

// CorruptFunc rewrites a message payload in a kind-aware way. It returns
// the replacement payload and true, or (nil, false) when the message kind
// is not corruptible. Implementations must return a deep-enough copy that
// no state shared with the sender is mutated, and must preserve the wire
// size (corruption flips bits, it does not truncate).
type CorruptFunc func(msg Message, rng *blockcrypto.RNG) (any, bool)

// FaultConfig is one set of fault-injection knobs. Rates are probabilities
// in [0, 1] evaluated independently per message; the zero value injects
// nothing.
type FaultConfig struct {
	// DropRate is the probability a message is silently lost in transit.
	// The sender still pays its uplink bytes (the loss happens on the wire,
	// not in the sender's stack).
	DropRate float64
	// DupRate is the probability a message is delivered twice. The second
	// copy arrives after an extra delay in [0, ReorderDelay).
	DupRate float64
	// ReorderRate is the probability a message is held back by an extra
	// delay in [0, ReorderDelay), letting later sends overtake it.
	ReorderRate float64
	// ReorderDelay bounds the extra delay of reordered and duplicated
	// copies; 0 defaults to 50 ms.
	ReorderDelay time.Duration
	// CorruptRate is the probability Corrupt is invoked on a message.
	CorruptRate float64
	// Corrupt performs payload corruption; nil disables corruption
	// regardless of CorruptRate.
	Corrupt CorruptFunc
}

// enabled reports whether this config can inject anything.
func (c FaultConfig) enabled() bool {
	return c.DropRate > 0 || c.DupRate > 0 || c.ReorderRate > 0 ||
		(c.CorruptRate > 0 && c.Corrupt != nil)
}

// reorderDelay returns the configured extra-delay bound with its default.
func (c FaultConfig) reorderDelay() time.Duration {
	if c.ReorderDelay > 0 {
		return c.ReorderDelay
	}
	return 50 * time.Millisecond
}

// FaultStats counts injected faults since EnableFaults (or the last
// ResetTraffic, which also clears them).
type FaultStats struct {
	Dropped    int64 // messages lost to DropRate
	Duplicated int64 // extra copies scheduled by DupRate
	Reordered  int64 // messages given extra delay by ReorderRate
	Corrupted  int64 // payloads rewritten by Corrupt
	Crashes    int64 // ScheduleCrash crash events fired
	Restarts   int64 // ScheduleCrash restart events fired
}

// faultState is the network's chaos machinery.
type faultState struct {
	rng    *blockcrypto.RNG
	global FaultConfig
	links  map[[2]NodeID]FaultConfig
	stats  FaultStats
}

// EnableFaults installs (or replaces) the global fault configuration and
// seeds the chaos RNG. Per-link overrides installed with SetLinkFaults are
// cleared. Pass a zero FaultConfig to keep faults armed (e.g. for per-link
// use) without global injection.
func (n *Network) EnableFaults(seed uint64, cfg FaultConfig) {
	n.faults = &faultState{
		rng:    blockcrypto.NewRNG(seed),
		global: cfg,
	}
}

// DisableFaults removes all fault injection (global and per-link) and the
// chaos RNG. Scheduled crashes already in the event queue still fire.
func (n *Network) DisableFaults() { n.faults = nil }

// SetLinkFaults overrides the fault configuration for the directed link
// from -> to. EnableFaults must have been called first.
func (n *Network) SetLinkFaults(from, to NodeID, cfg FaultConfig) error {
	if n.faults == nil {
		return fmt.Errorf("simnet: SetLinkFaults before EnableFaults")
	}
	if n.faults.links == nil {
		n.faults.links = make(map[[2]NodeID]FaultConfig)
	}
	n.faults.links[[2]NodeID{from, to}] = cfg
	return nil
}

// FaultStats returns a snapshot of the injected-fault counters (zero value
// when faults were never enabled).
func (n *Network) FaultStats() FaultStats {
	if n.faults == nil {
		return FaultStats{}
	}
	return n.faults.stats
}

// configFor resolves the fault config for one directed link.
func (f *faultState) configFor(from, to NodeID) FaultConfig {
	if f.links != nil {
		if cfg, ok := f.links[[2]NodeID{from, to}]; ok {
			return cfg
		}
	}
	return f.global
}

// ScheduleCrash scripts a crash: after `after` of virtual time the node
// goes down (in-flight messages to it are lost), and after a further
// downFor it comes back up with its in-memory state intact — a process
// restart, not a disk wipe. downFor <= 0 leaves the node down permanently.
// The script is part of the event queue, so it replays deterministically.
func (n *Network) ScheduleCrash(id NodeID, after, downFor time.Duration) error {
	if n.nodes[id] == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	n.After(after, func() {
		_ = n.SetDown(id, true)
		if n.faults != nil {
			n.faults.stats.Crashes++
		}
		n.traceOp("crash", id)
		if downFor > 0 {
			n.After(downFor, func() {
				_ = n.SetDown(id, false)
				if n.faults != nil {
					n.faults.stats.Restarts++
				}
				n.traceOp("restart", id)
			})
		}
	})
	return nil
}

// --- event trace -------------------------------------------------------------

// TraceEvent is one recorded simulation event. Op is one of "send", "recv",
// "drop" (receiver down/partitioned at delivery), "lose" (fault-injected
// loss), "dup" (fault-injected duplicate scheduled), "corrupt", "crash",
// "restart".
type TraceEvent struct {
	At       time.Duration
	Op       string
	From, To NodeID
	Kind     string
	Size     int
}

// String renders the event as one canonical line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%d %s %d->%d %s %d", e.At.Nanoseconds(), e.Op, e.From, e.To, e.Kind, e.Size)
}

// EnableTrace starts recording an event trace. Tracing is off by default
// because long experiments would accumulate unbounded memory.
func (n *Network) EnableTrace() { n.tracing = true }

// TraceString renders the whole trace, one event per line — two runs are
// identical iff their TraceStrings are byte-identical.
func (n *Network) TraceString() string {
	lines := make([]string, len(n.trace))
	for i, e := range n.trace {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// traceMsg records a message-shaped event when tracing is enabled.
func (n *Network) traceMsg(op string, msg Message) {
	if !n.tracing {
		return
	}
	n.trace = append(n.trace, TraceEvent{
		At: n.now, Op: op, From: msg.From, To: msg.To, Kind: msg.Kind, Size: msg.Size,
	})
}

// traceOp records a node-lifecycle event when tracing is enabled.
func (n *Network) traceOp(op string, id NodeID) {
	if !n.tracing {
		return
	}
	n.trace = append(n.trace, TraceEvent{At: n.now, Op: op, From: id, To: id})
}

// applyFaults runs the chaos knobs for msg. It returns the (possibly
// corrupted) message, the extra delivery delay, whether to schedule a
// duplicate copy (with its own extra delay), and whether the message was
// dropped outright.
func (n *Network) applyFaults(msg Message) (out Message, extra time.Duration, dup bool, dupExtra time.Duration, dropped bool) {
	out = msg
	f := n.faults
	if f == nil {
		return out, 0, false, 0, false
	}
	cfg := f.configFor(msg.From, msg.To)
	if !cfg.enabled() {
		return out, 0, false, 0, false
	}
	if cfg.DropRate > 0 && f.rng.Float64() < cfg.DropRate {
		f.stats.Dropped++
		n.traceMsg("lose", msg)
		return out, 0, false, 0, true
	}
	if cfg.CorruptRate > 0 && cfg.Corrupt != nil && f.rng.Float64() < cfg.CorruptRate {
		if p, ok := cfg.Corrupt(msg, f.rng); ok {
			out.Payload = p
			f.stats.Corrupted++
			n.traceMsg("corrupt", out)
		}
	}
	if cfg.ReorderRate > 0 && f.rng.Float64() < cfg.ReorderRate {
		extra = time.Duration(f.rng.Float64() * float64(cfg.reorderDelay()))
		f.stats.Reordered++
	}
	if cfg.DupRate > 0 && f.rng.Float64() < cfg.DupRate {
		dup = true
		dupExtra = time.Duration(f.rng.Float64() * float64(cfg.reorderDelay()))
		f.stats.Duplicated++
		n.traceMsg("dup", out)
	}
	return out, extra, dup, dupExtra, dropped
}
