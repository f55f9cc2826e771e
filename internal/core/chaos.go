package core

import (
	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/consensus"
	"icistrategy/internal/simnet"
)

// ChaosCorrupter returns a simnet.CorruptFunc that performs kind-aware,
// size-preserving corruption of ICI protocol payloads: it bumps a
// transaction amount inside a share (the one chunk-bearing message that
// travels decoded), flips one byte of a chunk's stored bytes inside every
// other chunk-bearing message, and flips the verdict bit of votes. Every
// mutation is applied to a copy, never to memory shared with the sender,
// and every corrupted payload is detectable — chunk tampering breaks the
// framing, the cut, the Merkle proofs or the block root, vote tampering
// breaks the signature — so corruption must cost the protocols retries,
// never integrity.
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
			if data, ok := flipByte(p.Chunk.Data, false, rng); ok { // a not-found answer carries no bytes
				p.Chunk.Data = data
				return p, true
			}
		case handoffMsg:
			if data, ok := flipByte(p.Chunk.Data, false, rng); ok {
				p.Chunk.Data = data
				return p, true
			}
		case blockChunksMsg:
			if len(p.Chunks) == 0 {
				return nil, false
			}
			i := rng.Intn(len(p.Chunks))
			if data, ok := flipByte(p.Chunks[i].Data, p.Chunks[i].Coded, rng); ok {
				p.Chunks = append([]retrievedChunk(nil), p.Chunks...)
				p.Chunks[i].Data = data
				return p, true
			}
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

// flipByte copies a chunk's stored bytes and flips one of them; the copy
// leaves the sender's buffer untouched. A live chunk's group with no
// transaction — its sub-body is the count alone — is left alone, as a share
// without transactions is; a coded share is any bytes.
func flipByte(data []byte, coded bool, rng *blockcrypto.RNG) ([]byte, bool) {
	if len(data) == 0 {
		return nil, false
	}
	if n, err := chain.BodyTxCount(data); !coded && err == nil && n == 0 {
		return nil, false
	}
	out := append([]byte(nil), data...)
	out[rng.Intn(len(out))] ^= 0xff
	return out, true
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
