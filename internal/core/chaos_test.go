package core

import (
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/consensus"
	"icistrategy/internal/simnet"
)

// TestChaosCorrupterCopies checks every corrupter arm: the returned payload
// differs from the input, while the input — which simnet shares with the
// sender's in-memory state — is left untouched.
func TestChaosCorrupterCopies(t *testing.T) {
	corrupt := ChaosCorrupter()
	rng := blockcrypto.NewRNG(99)
	key := blockcrypto.DeriveKeyPair(5, 1)
	tx := &chain.Transaction{Amount: 50, Nonce: 1, Fee: 1}
	tx.Sign(key)

	chunk := chunkPayload{Group: Group{Parts: 1, Txs: []*chain.Transaction{tx}}}

	t.Run("chunkPayload", func(t *testing.T) {
		out, ok := corrupt(simnet.Message{Payload: chunk}, rng)
		if !ok {
			t.Fatal("corrupter skipped a chunk payload")
		}
		mutated := out.(chunkPayload)
		if mutated.Txs[0].Amount == 50 {
			t.Fatal("corrupted chunk still carries the original amount")
		}
		if tx.Amount != 50 {
			t.Fatal("corrupter mutated the sender's transaction")
		}
	})

	t.Run("chunkRespMsg", func(t *testing.T) {
		resp := chunkRespMsg{Found: true, Chunk: chunk}
		out, ok := corrupt(simnet.Message{Payload: resp}, rng)
		if !ok {
			t.Fatal("corrupter skipped a found chunk response")
		}
		if out.(chunkRespMsg).Chunk.Txs[0].Amount == 50 || tx.Amount != 50 {
			t.Fatal("chunk response corruption leaked into sender memory")
		}
		if _, ok := corrupt(simnet.Message{Payload: chunkRespMsg{Found: false}}, rng); ok {
			t.Fatal("corrupter tampered with a not-found response")
		}
	})

	t.Run("blockChunksMsg", func(t *testing.T) {
		raw := []byte{1, 2, 3, 4}
		m := blockChunksMsg{Chunks: []retrievedChunk{{Coded: true, Raw: raw}}}
		out, ok := corrupt(simnet.Message{Payload: m}, rng)
		if !ok {
			t.Fatal("corrupter skipped a coded chunks response")
		}
		oraw := out.(blockChunksMsg).Chunks[0].Raw
		same := len(oraw) == len(raw)
		for i := range raw {
			if oraw[i] != raw[i] {
				same = false
			}
		}
		if same {
			t.Fatal("coded share not corrupted")
		}
		if raw[0] != 1 || raw[1] != 2 || raw[2] != 3 || raw[3] != 4 {
			t.Fatal("corrupter mutated the sender's share bytes")
		}
	})

	t.Run("txProofMsg", func(t *testing.T) {
		m := txProofMsg{Found: true, Tx: tx}
		out, ok := corrupt(simnet.Message{Payload: m}, rng)
		if !ok {
			t.Fatal("corrupter skipped a found tx proof")
		}
		if out.(txProofMsg).Tx.Amount == 50 || tx.Amount != 50 {
			t.Fatal("tx proof corruption leaked into sender memory")
		}
	})

	t.Run("vote", func(t *testing.T) {
		v := consensus.SignChunkVote(1, blockcrypto.Sum256([]byte("b")), 0, true, key)
		out, ok := corrupt(simnet.Message{Payload: v}, rng)
		if !ok {
			t.Fatal("corrupter skipped a vote")
		}
		flipped := out.(consensus.Vote)
		if flipped.Approve == v.Approve {
			t.Fatal("vote verdict not flipped")
		}
		if consensus.VerifyVote(flipped, key.Public) == nil {
			t.Fatal("flipped vote still verifies — corruption would be undetectable")
		}
	})

	t.Run("uncorruptible", func(t *testing.T) {
		if _, ok := corrupt(simnet.Message{Payload: getCommitMsg{}}, rng); ok {
			t.Fatal("corrupter claimed to corrupt an opaque control message")
		}
	})
}
