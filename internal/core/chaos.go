package core

import (
	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/consensus"
	"icistrategy/internal/simnet"
)

// ChaosCorrupter returns a simnet.CorruptFunc that performs kind-aware,
// size-preserving corruption of ICI protocol payloads: it flips a
// transaction amount inside chunk-bearing messages and the verdict bit of
// votes. Every mutation is applied to a copy, never to memory shared with
// the sender, and every corrupted payload is detectable — chunk tampering
// breaks the Merkle proofs or the block root, vote tampering breaks the
// signature — so corruption must cost the protocols retries, never
// integrity.
func ChaosCorrupter() simnet.CorruptFunc {
	return func(msg simnet.Message, rng *blockcrypto.RNG) (any, bool) {
		switch p := msg.Payload.(type) {
		case shareMsg:
			if len(p.Groups) == 0 {
				return nil, false
			}
			i := rng.Intn(len(p.Groups))
			if txs, ok := tamperTxs(p.Groups[i].Txs, rng); ok {
				p.Groups = append([]Group(nil), p.Groups...)
				p.Groups[i].Txs = txs
				return p, true
			}
		case chunkRespMsg:
			if !p.Found {
				return nil, false
			}
			if txs, ok := tamperTxs(p.Chunk.Txs, rng); ok {
				p.Chunk.Txs = txs
				return p, true
			}
		case blockChunksMsg:
			if len(p.Chunks) == 0 {
				return nil, false
			}
			chunks := append([]retrievedChunk(nil), p.Chunks...)
			i := rng.Intn(len(chunks))
			c := chunks[i]
			switch {
			case c.Coded && len(c.Raw) > 0:
				raw := append([]byte(nil), c.Raw...)
				raw[rng.Intn(len(raw))] ^= 0xff
				c.Raw = raw
			case len(c.Txs) > 0:
				txs, ok := tamperTxs(c.Txs, rng)
				if !ok {
					return nil, false
				}
				c.Txs = txs
			default:
				return nil, false
			}
			chunks[i] = c
			p.Chunks = chunks
			return p, true
		case txProofMsg:
			if !p.Found || p.Tx == nil {
				return nil, false
			}
			tx := *p.Tx
			tx.Amount++
			p.Tx = &tx
			return p, true
		case consensus.Vote:
			p.Approve = !p.Approve // signature no longer covers the verdict
			return p, true
		}
		return nil, false
	}
}

// tamperTxs copies txs and bumps one amount; the copy leaves the sender's
// slice untouched.
func tamperTxs(txs []*chain.Transaction, rng *blockcrypto.RNG) ([]*chain.Transaction, bool) {
	if len(txs) == 0 {
		return nil, false
	}
	out := append([]*chain.Transaction(nil), txs...)
	i := rng.Intn(len(out))
	tx := *out[i]
	tx.Amount++
	out[i] = &tx
	return out, true
}
