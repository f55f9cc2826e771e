package core

import (
	"errors"
	"fmt"
	"slices"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/cluster"
	"icistrategy/internal/metrics"
	"icistrategy/internal/par"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
)

// System errors.
var (
	ErrBadConfig      = errors.New("core: invalid system configuration")
	ErrNoTip          = errors.New("core: no committed blocks yet")
	ErrUnknownCluster = errors.New("core: cluster index out of range")
	ErrUnknownNodeID  = errors.New("core: unknown node")
)

// sideMillis is the side of the latency square nodes are placed in when
// Config.Coords is nil.
const sideMillis = 60

// Config parameterizes an ICIStrategy deployment.
type Config struct {
	// Nodes is the initial network size.
	Nodes int
	// Clusters is the number of clusters m.
	Clusters int
	// Replication is the intra-cluster replication factor r (1 ≤ r ≤
	// smallest cluster size).
	Replication int
	// Method selects the clustering algorithm (default BalancedKMeans).
	Method cluster.Method
	// Seed drives every random decision; identical seeds give identical
	// runs.
	Seed uint64
	// Coords overrides node placement (len must equal Nodes); nil means
	// uniform random placement in a sideMillis square.
	Coords []simnet.Coord
	// UplinkBytesPerSec, when positive, serializes each node's outgoing
	// transmissions at this rate (see simnet.SetUplinkBandwidth).
	UplinkBytesPerSec float64
	// Tracer, when non-nil, records a span/event for every protocol phase
	// and wire delivery. Nil (the default) leaves tracing disabled at
	// near-zero cost.
	Tracer *trace.Tracer
	// Registry receives the protocol counters (ici.*, consensus.*). Nil
	// means the System creates a private one, readable via Registry().
	Registry *metrics.Registry
}

func (c *Config) fillDefaults() {
	if c.Method == 0 {
		c.Method = cluster.BalancedKMeans
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
}

func (c *Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("%w: need at least one node", ErrBadConfig)
	}
	if c.Clusters < 1 || c.Clusters > c.Nodes {
		return fmt.Errorf("%w: clusters=%d with %d nodes", ErrBadConfig, c.Clusters, c.Nodes)
	}
	return nil
}

// System assembles and drives a whole ICIStrategy network inside the
// discrete-event simulator: nodes, clusters, keys, block production,
// membership changes and repair. It is the protocol-layer counterpart of
// Accountant and the entry point examples and experiments use.
type System struct {
	cfg      Config
	net      *simnet.Network
	coords   []simnet.Coord
	asg      *cluster.Assignment
	clusters []*clusterInfo
	nodes    map[simnet.NodeID]*Node
	keys     map[simnet.NodeID]blockcrypto.KeyPair
	rng      *blockcrypto.RNG
	tr       *trace.Tracer
	reg      *metrics.Registry
	pc       *protoCounters

	tip    *chain.Header
	height uint64
	nextID simnet.NodeID
}

// NewSystem builds the network: place nodes in latency space, cluster them,
// derive keys, and register everyone with the simulator.
func NewSystem(cfg Config) (*System, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := blockcrypto.NewRNG(cfg.Seed)
	coords := cfg.Coords
	if coords == nil {
		coords = simnet.RandomCoords(cfg.Nodes, sideMillis, rng.Fork("coords"))
	} else if len(coords) != cfg.Nodes {
		return nil, fmt.Errorf("%w: %d coords for %d nodes", ErrBadConfig, len(coords), cfg.Nodes)
	}
	asg, err := cluster.Partition(cfg.Method, coords, cfg.Clusters, rng.Fork("partition"))
	if err != nil {
		return nil, err
	}
	for c := 0; c < asg.NumClusters(); c++ {
		if cfg.Replication > asg.Size(c) {
			return nil, fmt.Errorf("%w: replication %d exceeds cluster %d size %d",
				ErrBadConfig, cfg.Replication, c, asg.Size(c))
		}
	}
	net := simnet.New(simnet.NewLinkModel(rng.Fork("latency").Uint64()))
	if cfg.UplinkBytesPerSec > 0 {
		net.SetUplinkBandwidth(cfg.UplinkBytesPerSec)
	}
	net.SetTracer(cfg.Tracer)
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &System{
		cfg:    cfg,
		net:    net,
		coords: coords,
		asg:    asg,
		nodes:  make(map[simnet.NodeID]*Node, cfg.Nodes),
		keys:   make(map[simnet.NodeID]blockcrypto.KeyPair, cfg.Nodes),
		rng:    rng,
		tr:     cfg.Tracer,
		reg:    reg,
		pc:     newProtoCounters(reg),
		nextID: simnet.NodeID(cfg.Nodes),
	}
	s.clusters = make([]*clusterInfo, asg.NumClusters())
	for c := range s.clusters {
		members := make([]simnet.NodeID, len(asg.Members[c]))
		for i, m := range asg.Members[c] {
			members[i] = simnet.NodeID(m)
		}
		ci := &clusterInfo{index: c}
		if _, err := ci.Push(0, members, nil); err != nil {
			return nil, err
		}
		s.clusters[c] = ci
	}
	keys := make([]blockcrypto.KeyPair, cfg.Nodes)
	par.Each(cfg.Nodes, 0, func(i int) { keys[i] = blockcrypto.DeriveKeyPair(cfg.Seed, uint64(i)) })
	registry := s.PublicKey
	for i, key := range keys {
		id := simnet.NodeID(i)
		s.keys[id] = key
		node := newNode(id, s.net, s.clusters[asg.ClusterOf[i]], key, cfg.Replication, registry, s.tr, s.pc)
		s.nodes[id] = node
		if err := s.net.AddNode(id, node, coords[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Network exposes the underlying simulator (for time and traffic queries).
func (s *System) Network() *simnet.Network { return s.net }

// Registry returns the metrics registry holding the protocol counters.
func (s *System) Registry() *metrics.Registry { return s.reg }

// Tracer returns the system's tracer (nil when tracing is disabled).
func (s *System) Tracer() *trace.Tracer { return s.tr }

// Assignment returns the cluster assignment the system was built with.
func (s *System) Assignment() *cluster.Assignment { return s.asg }

// NewAccountant returns the analytic model matching this system's
// clustering and replication, so tests and experiments can cross-check the
// protocol's actual storage against the closed-form accounting.
func (s *System) NewAccountant() (*Accountant, error) {
	return NewAccountant(s.asg, s.cfg.Replication)
}

// Node returns a node by ID.
func (s *System) Node(id simnet.NodeID) (*Node, error) {
	n, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNodeID, id)
	}
	return n, nil
}

// NumClusters returns the cluster count.
func (s *System) NumClusters() int { return len(s.clusters) }

// ClusterMembers returns a copy of the member list of cluster c.
func (s *System) ClusterMembers(c int) ([]simnet.NodeID, error) {
	if c < 0 || c >= len(s.clusters) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCluster, c)
	}
	return append([]simnet.NodeID(nil), s.clusters[c].Current().Members...), nil
}

// ClusterOf returns the cluster index of a node.
func (s *System) ClusterOf(id simnet.NodeID) (int, error) {
	n, err := s.Node(id)
	if err != nil {
		return 0, err
	}
	return n.cluster.index, nil
}

// PublicKey returns a node's public key, or nil for unknown nodes. It is
// the registry verifiers use.
func (s *System) PublicKey(id simnet.NodeID) []byte {
	if k, ok := s.keys[id]; ok {
		return k.Public
	}
	return nil
}

// Height returns the number of blocks produced so far.
func (s *System) Height() uint64 { return s.height }

// Tip returns the most recently produced block header.
func (s *System) Tip() (*chain.Header, error) {
	if s.tip == nil {
		return nil, ErrNoTip
	}
	return s.tip, nil
}

// ProduceBlock assembles the next block from txs and hands it to every
// cluster's leader for collaborative storage and verification. The producer
// is the rotating global proposer (node height mod n). Call
// Network().RunUntilIdle() (or Run) afterwards to let distribution,
// verification and commit play out; CommitCount reports progress.
func (s *System) ProduceBlock(txs []*chain.Transaction) (*chain.Block, error) {
	prev := blockcrypto.ZeroHash
	if s.tip != nil {
		prev = s.tip.Hash()
	}
	// Rotate the proposer over the initial population, skipping crashed
	// nodes (a dead proposer would simply miss its slot).
	proposerIdx := int(s.height % uint64(s.cfg.Nodes))
	proposer := simnet.NodeID(proposerIdx)
	for tries := 0; s.net.IsDown(proposer) && tries < s.cfg.Nodes; tries++ {
		proposerIdx = (proposerIdx + 1) % s.cfg.Nodes
		proposer = simnet.NodeID(proposerIdx)
	}
	b, err := chain.NewBlock(s.height, prev, txs, uint64(s.net.Now().Milliseconds()), uint64(proposer))
	if err != nil {
		return nil, err
	}
	msg := proposeMsg{Block: b}
	// One root span per produced block: every cluster's distribute span
	// parents here, so a block's whole fan-out reads as one trace.
	span := s.tr.Start(0, "distribute", "produce", int64(proposer))
	span.AddBytes(int64(b.BodySize()))
	for _, ci := range s.clusters {
		leader, lerr := ci.leaderAt(b.Header.Height)
		if lerr != nil {
			span.SetErr(lerr)
			span.End()
			return nil, lerr
		}
		if err := s.nodes[proposer].send(leader, msg, span.Context()); err != nil {
			span.SetErr(err)
			span.End()
			return nil, err
		}
	}
	span.End()
	hdr := b.Header
	s.tip = &hdr
	s.height++
	return b, nil
}

// CommitCount returns how many nodes have finalized the given block
// (stored its header).
func (s *System) CommitCount(block blockcrypto.Hash) int {
	n := 0
	for _, node := range s.nodes {
		if node.store.HasHeader(block) {
			n++
		}
	}
	return n
}

// ClusterCommitted reports whether every live member of cluster c finalized
// the block.
func (s *System) ClusterCommitted(c int, block blockcrypto.Hash) (bool, error) {
	if c < 0 || c >= len(s.clusters) {
		return false, fmt.Errorf("%w: %d", ErrUnknownCluster, c)
	}
	for _, m := range s.clusters[c].Current().Members {
		if s.net.IsDown(m) {
			continue
		}
		if !s.nodes[m].store.HasHeader(block) {
			return false, nil
		}
	}
	return true, nil
}

// AllCommitted reports whether every live node in the network finalized the
// block.
func (s *System) AllCommitted(block blockcrypto.Hash) bool {
	for c := range s.clusters {
		ok, err := s.ClusterCommitted(c, block)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// ClusterHoldsBlock verifies the intra-cluster integrity invariant for one
// block: the union of the cluster members' chunk stores reassembles the
// block body exactly (Merkle root check included). An archived block is
// rebuilt from its coded shares.
func (s *System) ClusterHoldsBlock(c int, block blockcrypto.Hash) error {
	if c < 0 || c >= len(s.clusters) {
		return fmt.Errorf("%w: %d", ErrUnknownCluster, c)
	}
	var hdr *chain.Header
	held := fetchState{chunks: make(map[int]storage.Chunk)}
	if info, archived := s.clusters[c].archivedInfo(block); archived {
		held.parts, held.codedK = info.total, info.k
	}
	for _, m := range s.clusters[c].Current().Members {
		node := s.nodes[m]
		if h, err := node.store.Header(block); err == nil && hdr == nil {
			hdr = &h
		}
		chunks, _ := node.heldChunks(block)
		held.merge(chunks)
	}
	if hdr == nil {
		return fmt.Errorf("cluster %d: %w", c, ErrUnknownBlock)
	}
	held.hdr = *hdr
	enc, err := held.assemble()
	if err != nil {
		return fmt.Errorf("cluster %d: reassembly of %s: %w", c, block.Short(), err)
	}
	if enc == nil {
		return fmt.Errorf("cluster %d: holds %d of %d chunks of %s", c, len(held.chunks), held.parts, block.Short())
	}
	return nil
}

// NodeStorage returns a node's storage snapshot.
func (s *System) NodeStorage(id simnet.NodeID) (storage.Stats, error) {
	n, err := s.Node(id)
	if err != nil {
		return storage.Stats{}, err
	}
	return n.store.Stats(), nil
}

// FailNode marks a node as crashed: it drops in-flight and future messages
// until recovered, but keeps its membership (use RemoveNode for departure).
func (s *System) FailNode(id simnet.NodeID) error { return s.net.SetDown(id, true) }

// RecoverNode brings a crashed node back.
func (s *System) RecoverNode(id simnet.NodeID) error { return s.net.SetDown(id, false) }

// RemoveNode permanently removes a node from its cluster's membership and
// fails it: a new membership epoch excludes it from the current height on,
// while historic blocks keep resolving placement against the epoch they
// were written under (the departed copies stay the authoritative sources
// until RepairCluster migrates the data and advances placement).
func (s *System) RemoveNode(id simnet.NodeID) error {
	n, err := s.Node(id)
	if err != nil {
		return err
	}
	ci := n.cluster
	if !slices.Contains(ci.Current().Members, id) {
		return fmt.Errorf("core: node %d is not a member of cluster %d", id, ci.index)
	}
	if len(ci.Current().Members) == 1 {
		return fmt.Errorf("core: cluster %d lost its last member", ci.index)
	}
	if _, err := ci.Push(s.height, others(id, ci.Current().Members), nil); err != nil {
		return err
	}
	return s.net.SetDown(id, true)
}

// RepairCluster triggers every member of cluster c to re-establish the
// chunks it owns under the current epoch; cb receives the total number of
// unrecoverable chunks once all members finish. When nothing was lost the
// cluster's placement advances to the current epoch: every block's chunks
// are now fully accounted for under the current membership, and stale
// copies become prunable. Drive the network afterwards.
func (s *System) RepairCluster(c int, cb func(lost int)) error {
	if c < 0 || c >= len(s.clusters) {
		return fmt.Errorf("%w: %d", ErrUnknownCluster, c)
	}
	ci := s.clusters[c]
	target := ci.Current().Seq
	outstanding := 0
	totalLost := 0
	for _, m := range ci.Current().Members {
		if s.net.IsDown(m) {
			continue
		}
		outstanding++
	}
	if outstanding == 0 {
		cb(0)
		return nil
	}
	for _, m := range ci.Current().Members {
		if s.net.IsDown(m) {
			continue
		}
		s.nodes[m].RepairOwnership(func(lost int) {
			totalLost += lost
			outstanding--
			if outstanding == 0 {
				if totalLost == 0 {
					ci.AdvancePlacement(target)
				}
				cb(totalLost)
			}
		})
	}
	return nil
}

// noNode is the sentinel "exclude nobody" argument of sponsorFor.
const noNode = ^simnet.NodeID(0)

// sponsorFor picks a bootstrap sponsor inside the cluster: a live member
// that is not itself mid-bootstrap (a joining member has no chain yet, and
// syncing headers from it would complete a bootstrap against an empty or
// partial chain), and not the excluded node.
func (s *System) sponsorFor(ci *clusterInfo, exclude simnet.NodeID) (simnet.NodeID, error) {
	for _, m := range ci.Current().Members {
		if m == exclude || s.net.IsDown(m) {
			continue
		}
		if s.nodes[m].Bootstrapping() {
			continue
		}
		return m, nil
	}
	return 0, fmt.Errorf("core: cluster %d has no live settled sponsor", ci.index)
}

// JoinCluster creates a brand-new node, adds it to cluster c's membership,
// and starts its bootstrap from a live, settled sponsor inside the
// cluster. cb fires with the new node's ID (and any bootstrap error) once
// the join completes; on success the cluster's placement advances to the
// join epoch (rendezvous hashing bounds the movement: only the chunks the
// newcomer displaces into its own ownership transfer, roughly 1/|members|
// of the data — never a full reshuffle). Drive the network afterwards.
func (s *System) JoinCluster(c int, cb func(simnet.NodeID, error)) error {
	if c < 0 || c >= len(s.clusters) {
		return fmt.Errorf("%w: %d", ErrUnknownCluster, c)
	}
	ci := s.clusters[c]
	sponsor, err := s.sponsorFor(ci, noNode)
	if err != nil {
		return err
	}
	id := s.nextID
	s.nextID++
	key := blockcrypto.DeriveKeyPair(s.cfg.Seed, uint64(id))
	s.keys[id] = key
	node := newNode(id, s.net, ci, key, s.cfg.Replication, s.PublicKey, s.tr, s.pc)
	s.nodes[id] = node
	// Place the newcomer near its sponsor — joining nodes pick the
	// latency-closest cluster in practice.
	coord, err := s.net.Coordinate(sponsor)
	if err != nil {
		return err
	}
	coord.X += s.rng.NormFloat64()
	coord.Y += s.rng.NormFloat64()
	if err := s.net.AddNode(id, node, coord); err != nil {
		return err
	}
	return s.admit(ci, node, sponsor, func(err error) { cb(id, err) })
}

// admit grows ci's membership by n now — blocks from the current height on
// are split into the larger part count — and bootstraps n from sponsor; once
// the bootstrap succeeded, placement advances to the grown epoch.
func (s *System) admit(ci *clusterInfo, n *Node, sponsor simnet.NodeID, cb func(error)) error {
	epoch, err := ci.Push(s.height, append(ci.Current().Members, n.id), nil)
	if err != nil {
		return err
	}
	target := epoch.Seq
	n.Bootstrap(sponsor, func(err error) {
		if err == nil {
			ci.AdvancePlacement(target)
		}
		cb(err)
	})
	return nil
}

// LeaveCluster gracefully departs a node: a new epoch excludes it, the
// leaver hands off every chunk whose ownership its departure shifts to the
// gaining members, and only once every handoff is acknowledged does the
// node go down. cb fires with the number of chunks moved; on success the
// cluster's placement advances to the departure epoch, so the cluster
// needs no repair at all (zero repair bandwidth is the point of leaving
// gracefully instead of being removed). Drive the network afterwards.
func (s *System) LeaveCluster(id simnet.NodeID, cb func(moved int, err error)) error {
	n, err := s.Node(id)
	if err != nil {
		return err
	}
	ci := n.cluster
	if !slices.Contains(ci.Current().Members, id) {
		return fmt.Errorf("core: node %d is not a member of cluster %d", id, ci.index)
	}
	if len(ci.Current().Members) == 1 {
		return fmt.Errorf("core: cluster %d lost its last member", ci.index)
	}
	if s.net.IsDown(id) {
		return fmt.Errorf("core: node %d is down; use RemoveNode for crashed members", id)
	}
	epoch, err := ci.Push(s.height, others(id, ci.Current().Members), nil)
	if err != nil {
		return err
	}
	target := epoch.Seq
	n.HandoffChunks(func(moved int, herr error) {
		if herr == nil {
			ci.AdvancePlacement(target)
		}
		_ = s.net.SetDown(id, true)
		cb(moved, herr)
	})
	return nil
}

// RejoinCluster brings a previously departed node back under its original
// identity: the same ID and keypair return to membership in a new epoch,
// and the node bootstraps the blocks it missed (chunks it still holds from
// before departing are not refetched); a node still handing off is refused.
// cb fires once the resync completes; on success placement advances to the
// rejoin epoch. Drive the network afterwards.
func (s *System) RejoinCluster(id simnet.NodeID, cb func(error)) error {
	n, err := s.Node(id)
	if err != nil {
		return err
	}
	ci := n.cluster
	if slices.Contains(ci.Current().Members, id) {
		return fmt.Errorf("core: node %d is already a member of cluster %d", id, ci.index)
	}
	if n.handoff != nil {
		return fmt.Errorf("core: node %d is still handing off its chunks", id)
	}
	sponsor, serr := s.sponsorFor(ci, id)
	if serr != nil {
		return serr
	}
	if err := s.net.SetDown(id, false); err != nil {
		return err
	}
	return s.admit(ci, n, sponsor, cb)
}

// ClusterEpoch returns the current membership epoch sequence number of
// cluster c (0 until the first membership change) — the epoch tag netx
// servers and the gateway exchange in cluster maps.
func (s *System) ClusterEpoch(c int) (int, error) {
	if c < 0 || c >= len(s.clusters) {
		return 0, fmt.Errorf("%w: %d", ErrUnknownCluster, c)
	}
	return s.clusters[c].Current().Seq, nil
}
