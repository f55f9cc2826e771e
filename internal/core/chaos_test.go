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

	t.Run("shareMsg", func(t *testing.T) {
		// The message a leader sends: several chunks under one header. One
		// transaction of one chunk changes, in a copy.
		tx2 := &chain.Transaction{Amount: 70, Nonce: 2, Fee: 1}
		tx2.Sign(key)
		share := shareMsg{Groups: []Group{chunk.Group, {Index: 1, Parts: 2, TxStart: 1, Txs: []*chain.Transaction{tx2}}}}
		for i := 0; i < 8; i++ {
			out, ok := corrupt(simnet.Message{Payload: share}, rng)
			if !ok {
				t.Fatal("corrupter skipped a share: chunk corruption would be switched off")
			}
			got := out.(shareMsg).Groups
			if first, second := got[0].Txs[0].Amount != 50, got[1].Txs[0].Amount != 70; first == second {
				t.Fatalf("corrupted share carries amounts %d and %d, want exactly one changed", got[0].Txs[0].Amount, got[1].Txs[0].Amount)
			}
			if tx.Amount != 50 || tx2.Amount != 70 || share.Groups[0].Txs[0] != tx || share.Groups[1].Txs[0] != tx2 {
				t.Fatal("corrupter mutated the sender's share")
			}
		}
		if _, ok := corrupt(simnet.Message{Payload: shareMsg{Groups: []Group{{Parts: 1}}}}, rng); ok {
			t.Fatal("corrupter claimed to corrupt a share without transactions")
		}
		if _, ok := corrupt(simnet.Message{Payload: shareMsg{}}, rng); ok {
			t.Fatal("corrupter claimed to corrupt an empty share")
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
		v := consensus.SignShareVote(1, blockcrypto.Sum256([]byte("b")), []int{0, 2}, true, key)
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
