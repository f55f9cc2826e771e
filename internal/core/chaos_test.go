package core

import (
	"bytes"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/consensus"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

// TestChaosCorrupterCopies checks every corrupter arm: the returned payload
// differs from the input — every chunk-bearing message in one byte of one
// chunk's stored bytes — while the input, which simnet shares with the
// sender's in-memory state, is left untouched.
func TestChaosCorrupterCopies(t *testing.T) {
	corrupt := ChaosCorrupter()
	rng := blockcrypto.NewRNG(99)
	key := blockcrypto.DeriveKeyPair(5, 1)
	tx := &chain.Transaction{Amount: 50, Nonce: 1, Fee: 1}
	tx.Sign(key)

	group := Group{Parts: 1, Txs: []*chain.Transaction{tx}}
	data := group.Encode()
	chunk := chunkPayload{Chunk: group.Chunk(blockcrypto.ZeroHash, data)}
	// flipped reports whether got is want with exactly one byte changed, and
	// that want still holds the bytes the sender built.
	flipped := func(t *testing.T, got, want, orig []byte) {
		t.Helper()
		if !bytes.Equal(want, orig) {
			t.Fatal("corrupter mutated the sender's bytes")
		}
		diff := 0
		for i := range want {
			if i < len(got) && got[i] != want[i] {
				diff++
			}
		}
		if len(got) != len(want) || diff != 1 {
			t.Fatalf("corrupted copy differs from the sender's in %d bytes (length %d, want %d), want one", diff, len(got), len(want))
		}
	}
	emptyGroup := (&Group{Parts: 2, Index: 1, TxStart: 1}).Encode()

	t.Run("shareMsg", func(t *testing.T) {
		// The message a leader sends: several chunks under one header. One
		// byte of one chunk changes, in a copy.
		tx2 := &chain.Transaction{Amount: 70, Nonce: 2, Fee: 1}
		tx2.Sign(key)
		second := Group{Index: 1, Parts: 2, TxStart: 1, Txs: []*chain.Transaction{tx2}}
		share := shareMsg{Chunks: []storage.Chunk{chunk.Chunk, second.Chunk(blockcrypto.ZeroHash, second.Encode())}}
		orig := [][]byte{bytes.Clone(share.Chunks[0].Data), bytes.Clone(share.Chunks[1].Data)}
		for i := 0; i < 8; i++ {
			out, ok := corrupt(simnet.Message{Payload: share}, rng)
			if !ok {
				t.Fatal("corrupter skipped a share: chunk corruption would be switched off")
			}
			got := out.(shareMsg).Chunks
			changed := -1
			for j := range got {
				if !bytes.Equal(got[j].Data, orig[j]) {
					if changed >= 0 {
						t.Fatal("corrupted share differs from the sender's in two chunks, want one")
					}
					changed = j
				}
			}
			if changed < 0 {
				t.Fatal("corrupted share carries the sender's bytes")
			}
			flipped(t, got[changed].Data, share.Chunks[changed].Data, orig[changed])
			if &got[0] == &share.Chunks[0] {
				t.Fatal("corrupter rewrote the sender's chunk slice")
			}
		}
		empty := shareMsg{Chunks: []storage.Chunk{(&Group{Parts: 2, Index: 1, TxStart: 1}).Chunk(blockcrypto.ZeroHash, emptyGroup)}}
		if _, ok := corrupt(simnet.Message{Payload: empty}, rng); ok {
			t.Fatal("corrupter claimed to corrupt a share without transactions")
		}
		if _, ok := corrupt(simnet.Message{Payload: shareMsg{}}, rng); ok {
			t.Fatal("corrupter claimed to corrupt an empty share")
		}
	})

	t.Run("chunkRespMsg", func(t *testing.T) {
		orig := bytes.Clone(data)
		out, ok := corrupt(simnet.Message{Payload: chunkRespMsg{Found: true, Chunk: chunk}}, rng)
		if !ok {
			t.Fatal("corrupter skipped a found chunk response")
		}
		flipped(t, out.(chunkRespMsg).Chunk.Data, chunk.Data, orig)
		if _, ok := corrupt(simnet.Message{Payload: chunkRespMsg{Found: false}}, rng); ok {
			t.Fatal("corrupter tampered with a not-found response")
		}
	})

	t.Run("handoffMsg", func(t *testing.T) {
		orig := bytes.Clone(data)
		out, ok := corrupt(simnet.Message{Payload: handoffMsg{Chunk: chunk, ReqID: 3}}, rng)
		if !ok {
			t.Fatal("corrupter skipped a handoff")
		}
		flipped(t, out.(handoffMsg).Chunk.Data, chunk.Data, orig)
		empty := chunkPayload{Chunk: (&Group{Parts: 2, Index: 1, TxStart: 1}).Chunk(blockcrypto.ZeroHash, emptyGroup)}
		if _, ok := corrupt(simnet.Message{Payload: handoffMsg{Chunk: empty}}, rng); ok {
			t.Fatal("corrupter claimed to corrupt a handed-off group without transactions")
		}
	})

	t.Run("blockChunksMsg", func(t *testing.T) {
		raw := []byte{1, 2, 3, 4}
		for _, c := range []storage.Chunk{
			{Parts: 1, Data: data},           // a live chunk's sub-body
			{Parts: 3, Data: raw, CodedK: 2}, // a Reed-Solomon share
		} {
			orig := bytes.Clone(c.Data)
			m := blockChunksMsg{Chunks: []storage.Chunk{c}}
			out, ok := corrupt(simnet.Message{Payload: m}, rng)
			if !ok {
				t.Fatalf("corrupter skipped a chunks response (coded %v)", c.CodedK > 0)
			}
			flipped(t, out.(blockChunksMsg).Chunks[0].Data, m.Chunks[0].Data, orig)
		}
		empty := blockChunksMsg{Chunks: []storage.Chunk{{ID: storage.ChunkID{Index: 1}, Parts: 2, TxStart: 1, Data: emptyGroup}}}
		if _, ok := corrupt(simnet.Message{Payload: empty}, rng); ok {
			t.Fatal("corrupter claimed to corrupt a live group without transactions")
		}
		if _, ok := corrupt(simnet.Message{Payload: blockChunksMsg{}}, rng); ok {
			t.Fatal("corrupter claimed to corrupt an empty chunks response")
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
		out, ok := corrupt(simnet.Message{Payload: voteMsg{v}}, rng)
		if !ok {
			t.Fatal("corrupter skipped a vote")
		}
		flipped := out.(voteMsg)
		if flipped.Approve == v.Approve {
			t.Fatal("vote verdict not flipped")
		}
		if consensus.VerifyVote(flipped.Vote, key.Public) == nil {
			t.Fatal("flipped vote still verifies — corruption would be undetectable")
		}
	})

	t.Run("uncorruptible", func(t *testing.T) {
		if _, ok := corrupt(simnet.Message{Payload: getCommitMsg{}}, rng); ok {
			t.Fatal("corrupter claimed to corrupt an opaque control message")
		}
	})
}
