// Package workload generates the synthetic transaction streams the
// experiments run: seeded account populations, uniformly chosen senders,
// Bitcoin-like transaction sizes, and a block packer whose senders' nonces
// run 0, 1, 2, ... Identical seeds produce identical workloads, so every
// experiment is reproducible.
package workload

import (
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/par"
)

// Generator errors.
var (
	ErrNoAccounts = errors.New("workload: need at least two accounts")
	ErrBadParams  = errors.New("workload: invalid parameters")
)

// Config parameterizes a workload.
type Config struct {
	// Accounts is the size of the account population (>= 2).
	Accounts int
	// PayloadBytes pads every transaction to a Bitcoin-like size
	// (a signed transfer is ~210 bytes of framing; 40 bytes of payload
	// lands at the classic ~250-byte average).
	PayloadBytes int
	// Seed drives account keys and all sampling.
	Seed uint64
}

// Generator produces signed, nonce-correct transactions over a fixed
// account population.
type Generator struct {
	cfg    Config
	keys   []blockcrypto.KeyPair
	ids    []chain.AccountID
	nonces []uint64
	rng    *blockcrypto.RNG
}

// NewGenerator builds a workload generator and the funded account set.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Accounts < 2 {
		return nil, ErrNoAccounts
	}
	if cfg.PayloadBytes < 0 {
		return nil, ErrBadParams
	}
	g := &Generator{
		cfg:    cfg,
		keys:   make([]blockcrypto.KeyPair, cfg.Accounts),
		ids:    make([]chain.AccountID, cfg.Accounts),
		nonces: make([]uint64, cfg.Accounts),
		rng:    blockcrypto.NewRNG(cfg.Seed).Fork("workload"),
	}
	par.Each(cfg.Accounts, 0, func(i int) {
		g.keys[i] = blockcrypto.DeriveKeyPair(cfg.Seed^0xACC0FFEE, uint64(i))
		g.ids[i] = blockcrypto.PublicKeyHash(g.keys[i].Public)
	})
	return g, nil
}

// Accounts returns the account IDs of the population.
func (g *Generator) Accounts() []chain.AccountID {
	return append([]chain.AccountID(nil), g.ids...)
}

// NextTx produces one signed transaction with correct nonce sequencing.
func (g *Generator) NextTx() *chain.Transaction {
	tx, key := g.draw()
	tx.Sign(key)
	return tx
}

// NextTxs produces the next n transactions of the stream, the same ones n
// calls to NextTx would. The draws advance the RNG and the nonces, so they
// run in stream order on the caller's goroutine; the signatures read
// nothing the stream advances, so they are made side by side afterwards,
// each into its own slot.
func (g *Generator) NextTxs(n int) []*chain.Transaction {
	out := make([]*chain.Transaction, n)
	keys := make([]blockcrypto.KeyPair, n)
	for i := range out {
		out[i], keys[i] = g.draw()
	}
	par.Each(n, 0, func(i int) { out[i].Sign(keys[i]) })
	return out
}

// draw takes the next transaction's random fields and nonce from the
// stream and returns it unsigned, with the sender key that must sign it.
func (g *Generator) draw() (*chain.Transaction, blockcrypto.KeyPair) {
	from := g.rng.Intn(len(g.ids))
	to := g.rng.Intn(len(g.ids) - 1)
	if to >= from {
		to++
	}
	var payload []byte
	if g.cfg.PayloadBytes > 0 {
		payload = make([]byte, g.cfg.PayloadBytes)
		for i := range payload {
			payload[i] = byte(g.rng.Uint64())
		}
	}
	tx := &chain.Transaction{
		From:    g.ids[from],
		To:      g.ids[to],
		Amount:  uint64(g.rng.Intn(100)) + 1,
		Nonce:   g.nonces[from],
		Fee:     1,
		Payload: payload,
	}
	g.nonces[from]++
	return tx, g.keys[from]
}

// TxSize returns the encoded size of this workload's transactions (all
// transactions of a generator encode to the same size because payload
// length is fixed).
func (g *Generator) TxSize() int {
	probe := &chain.Transaction{
		From:    g.ids[0],
		To:      g.ids[1],
		Payload: make([]byte, g.cfg.PayloadBytes),
	}
	probe.Sign(g.keys[0])
	return probe.EncodedSize()
}

// ChainBuilder packs generated transactions into a valid chain of blocks,
// tracking the tip so blocks always link.
type ChainBuilder struct {
	gen      *Generator
	tip      *chain.Header
	height   uint64
	interval uint64 // virtual ms between blocks
}

// NewChainBuilder wraps a generator; interval is the block spacing in
// virtual milliseconds (Bitcoin: 600 000, experiments typically use 10 000).
func NewChainBuilder(gen *Generator, intervalMillis uint64) (*ChainBuilder, error) {
	if intervalMillis == 0 {
		return nil, fmt.Errorf("%w: zero block interval", ErrBadParams)
	}
	return &ChainBuilder{gen: gen, interval: intervalMillis}, nil
}

// NextBlock packs txPerBlock fresh transactions into the next block.
func (b *ChainBuilder) NextBlock(txPerBlock int) (*chain.Block, error) {
	prev := blockcrypto.ZeroHash
	if b.tip != nil {
		prev = b.tip.Hash()
	}
	blk, err := chain.NewBlock(b.height, prev, b.gen.NextTxs(txPerBlock), b.height*b.interval, uint64(b.height%97))
	if err != nil {
		return nil, err
	}
	hdr := blk.Header
	b.tip = &hdr
	b.height++
	return blk, nil
}

// Height returns how many blocks have been built.
func (b *ChainBuilder) Height() uint64 { return b.height }
