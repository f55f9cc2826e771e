package core

import (
	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

// ChaosCorrupter returns a simnet.CorruptFunc that performs kind-aware,
// size-preserving corruption of ICI protocol payloads: it flips one byte of
// one chunk's stored bytes inside every chunk-bearing message (a share, a
// fetch answer, a handoff, a whole-block answer), bumps the amount of a
// served transaction, and flips the verdict bit of votes. Every mutation
// is applied to a copy, never to memory shared with the sender, and every
// corrupted payload is detectable — chunk tampering breaks the framing, the
// cut, a Merkle proof, a signature or the block root, vote tampering breaks
// the vote's signature — so corruption must cost the protocols retries,
// never integrity.
func ChaosCorrupter() simnet.CorruptFunc {
	return func(msg simnet.Message, rng *blockcrypto.RNG) (any, bool) {
		switch p := msg.Payload.(type) {
		case shareMsg:
			if chunks, ok := flipChunk(p.Chunks, rng); ok {
				p.Chunks = chunks
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
			if chunks, ok := flipChunk(p.Chunks, rng); ok {
				p.Chunks = chunks
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
		case voteMsg:
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

// flipChunk copies chunks and flips one byte of one chunk's stored bytes
// (flipByte); the copies leave the sender's slice and buffers untouched.
func flipChunk(chunks []storage.Chunk, rng *blockcrypto.RNG) ([]storage.Chunk, bool) {
	if len(chunks) == 0 {
		return nil, false
	}
	i := rng.Intn(len(chunks))
	data, ok := flipByte(chunks[i].Data, chunks[i].CodedK > 0, rng)
	if !ok {
		return nil, false
	}
	out := append([]storage.Chunk(nil), chunks...)
	out[i].Data = data
	return out, true
}
