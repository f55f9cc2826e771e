package chain

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// rangeFixture returns n distinct transactions, their tree, every leaf's
// proof, and the encoded body of all of them with each transaction's offset
// in it (offs[i] to offs[i+1]). The transactions are unsigned: a range proof
// reads their framing and their hashes, nothing else.
func rangeFixture(tb testing.TB, n int) (txs []*Transaction, tree *MerkleTree, proofs []Proof, body []byte, offs []int) {
	tb.Helper()
	txs = make([]*Transaction, n)
	for i := range txs {
		tx := &Transaction{Amount: uint64(1 + i), Nonce: uint64(i)}
		tx.To[0], tx.To[1] = byte(i), byte(i>>8)
		txs[i] = tx
	}
	tree, err := TxMerkleTree(txs)
	if err != nil {
		tb.Fatal(err)
	}
	proofs = make([]Proof, n)
	for i := range proofs {
		if proofs[i], err = tree.Prove(i); err != nil {
			tb.Fatal(err)
		}
	}
	body = (&Block{Txs: txs}).EncodeBody()
	offs = make([]int, n+1)
	offs[0] = 4
	for i, tx := range txs {
		offs[i+1] = offs[i] + tx.EncodedSize()
	}
	return txs, tree, proofs, body, offs
}

// subBody appends to buf the encoded sub-body of transactions [s, e) of the
// fixture's body, as a chunk stores it.
func subBody(buf, body []byte, offs []int, s, e int) []byte {
	buf = binary.BigEndian.AppendUint32(buf[:0], uint32(e-s))
	return append(buf, body[offs[s]:offs[e]]...)
}

// TestRangeProofRebuildsProve: for every run of every tree size tried, the
// proofs rebuilt from the run's edge and its transactions are exactly what
// MerkleTree.Prove returns, and the edge holds at most two hashes a level.
func TestRangeProofRebuildsProve(t *testing.T) {
	var buf []byte
	for _, n := range []int{1, 2, 3, 5, 7, 12, 24, 96, 97, 256} {
		_, _, proofs, body, offs := rangeFixture(t, n)
		for s := 0; s < n; s++ {
			for e := s + 1; e <= n; e++ {
				r, err := RangeProofOf(s, proofs[s:e])
				if err != nil {
					t.Fatalf("n=%d run [%d,%d): %v", n, s, e, err)
				}
				if len(r.Hashes) > 2*r.Depth {
					t.Fatalf("n=%d run [%d,%d): %d edge hashes under depth %d", n, s, e, len(r.Hashes), r.Depth)
				}
				buf = subBody(buf, body, offs, s, e)
				got, err := r.Proofs(s, buf)
				if err != nil {
					t.Fatalf("n=%d run [%d,%d): rebuild: %v", n, s, e, err)
				}
				if !equalProofs(got, proofs[s:e]) {
					t.Fatalf("n=%d run [%d,%d): rebuilt proofs differ from Prove's", n, s, e)
				}
			}
		}
	}
	// An empty run keeps nothing and rebuilds nothing.
	r, err := RangeProofOf(3, nil)
	if err != nil || !reflect.DeepEqual(r, RangeProof{}) {
		t.Fatalf("empty run: %+v, %v", r, err)
	}
	if got, err := r.Proofs(3, []byte{0, 0, 0, 0}); got != nil || err != nil {
		t.Fatalf("empty body rebuilt %v, %v", got, err)
	}
}

// equalProofs is reflect.DeepEqual on proof lists (a nil list or step slice
// differs from an empty one), without reflection: the property test above
// compares three million proofs.
func equalProofs(a, b []Proof) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i].Steps, b[i].Steps
		if a[i].LeafIndex != b[i].LeafIndex || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for l := range x {
			if x[l] != y[l] {
				return false
			}
		}
	}
	return true
}

// TestRangeProofRefuses: what RangeProofOf and Proofs refuse, each with the
// sentinel a caller can match.
func TestRangeProofRefuses(t *testing.T) {
	_, _, proofs, body, offs := rangeFixture(t, 12)
	run := func(mutate func(ps []Proof)) []Proof {
		ps := make([]Proof, 4)
		for i := range ps {
			ps[i] = Proof{LeafIndex: proofs[3+i].LeafIndex, Steps: append([]ProofStep(nil), proofs[3+i].Steps...)}
		}
		mutate(ps)
		return ps
	}
	for name, ps := range map[string][]Proof{
		"index not running on":     run(func(ps []Proof) { ps[2].LeafIndex++ }),
		"unequal depth":            run(func(ps []Proof) { ps[1].Steps = ps[1].Steps[:3] }),
		"flipped side":             run(func(ps []Proof) { ps[0].Steps[2].Left = !ps[0].Steps[2].Left }),
		"swapped with a neighbour": run(func(ps []Proof) { ps[1].Steps, ps[2].Steps = ps[2].Steps, ps[1].Steps }),
	} {
		if _, err := RangeProofOf(3, ps); !errors.Is(err, ErrProofMalformed) && !errors.Is(err, ErrProofInvalid) {
			t.Errorf("%s: RangeProofOf says %v", name, err)
		}
	}
	if _, err := RangeProofOf(3, []Proof{{LeafIndex: 3, Steps: make([]ProofStep, maxProofDepth+1)}}); !errors.Is(err, ErrProofTooLarge) {
		t.Errorf("proof deeper than any tree: %v", err)
	}

	r, err := RangeProofOf(3, proofs[3:7])
	if err != nil {
		t.Fatal(err)
	}
	sub := subBody(nil, body, offs, 3, 7)
	for name, tc := range map[string]struct {
		r     RangeProof
		start int
		body  []byte
	}{
		"body cut short":      {r, 3, sub[:len(sub)-1]},
		"one more tx":         {r, 3, subBody(nil, body, offs, 3, 8)},
		"negative start":      {r, -1, sub},
		"run beyond depth":    {r, 14, sub},
		"negative depth":      {RangeProof{Depth: -1, Hashes: r.Hashes}, 3, sub},
		"edge one hash long":  {RangeProof{Depth: r.Depth, Hashes: append(r.Hashes[:len(r.Hashes):len(r.Hashes)], r.Hashes[0])}, 3, sub},
		"edge one hash short": {RangeProof{Depth: r.Depth, Hashes: r.Hashes[:len(r.Hashes)-1]}, 3, sub},
	} {
		if got, err := tc.r.Proofs(tc.start, tc.body); err == nil {
			t.Errorf("%s: rebuilt %d proofs", name, len(got))
		}
	}
}

// FuzzRangeProof: an honest run's edge rebuilds Prove's proofs, and one
// mutation of the run's proofs — a flipped byte of an edge sibling, a
// flipped side, a dropped step, every index relabeled, or two proofs
// swapped under their labels — is refused by RangeProofOf or by the
// rebuild, or rebuilds proofs of which at least one fails VerifyProof.
// Nothing panics.
func FuzzRangeProof(f *testing.F) {
	f.Add(uint16(12), uint16(3), uint16(4), uint8(0), uint16(0), uint8(0))
	f.Add(uint16(96), uint16(84), uint16(11), uint8(1), uint16(5), uint8(3))
	f.Add(uint16(97), uint16(96), uint16(0), uint8(2), uint16(0), uint8(6))
	f.Add(uint16(7), uint16(0), uint16(6), uint8(3), uint16(1), uint8(1))
	f.Add(uint16(256), uint16(0), uint16(255), uint8(4), uint16(9), uint8(2))
	f.Add(uint16(1), uint16(0), uint16(0), uint8(2), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, n, s, e uint16, kind uint8, at uint16, bit uint8) {
		size := 1 + int(n)%300
		start := int(s) % size
		end := start + 1 + int(e)%(size-start)
		txs, tree, all, body, offs := rangeFixture(t, size)
		sub := subBody(nil, body, offs, start, end)
		r, err := RangeProofOf(start, all[start:end])
		if err != nil {
			t.Fatalf("honest run [%d,%d) of %d refused: %v", start, end, size, err)
		}
		if got, err := r.Proofs(start, sub); err != nil || !reflect.DeepEqual(got, all[start:end]) {
			t.Fatalf("honest run [%d,%d) of %d rebuilt wrong: %v", start, end, size, err)
		}

		ps := make([]Proof, end-start)
		for i := range ps {
			ps[i] = Proof{LeafIndex: all[start+i].LeafIndex, Steps: append([]ProofStep(nil), all[start+i].Steps...)}
		}
		depth, j := len(ps[0].Steps), int(at)%len(ps)
		from := start
		switch kind % 5 {
		case 0: // a byte of a sibling the edge keeps
			type site struct{ proof, level int }
			var sites []site
			for l := 0; l < depth; l++ {
				if ps[0].Steps[l].Left {
					sites = append(sites, site{0, l})
				}
				if !ps[len(ps)-1].Steps[l].Left {
					sites = append(sites, site{len(ps) - 1, l})
				}
			}
			if len(sites) == 0 {
				return // a whole power-of-two tree: its edge is empty
			}
			x := sites[int(at)%len(sites)]
			ps[x.proof].Steps[x.level].Sibling[bit%32] ^= 1 << (bit % 8)
		case 1:
			if depth == 0 {
				return
			}
			l := int(bit) % depth
			ps[j].Steps[l].Left = !ps[j].Steps[l].Left
		case 2:
			if depth == 0 {
				return
			}
			l := int(bit) % depth
			ps[j].Steps = append(ps[j].Steps[:l], ps[j].Steps[l+1:]...)
		case 3:
			delta := 1 + int(bit)%size
			if at%2 == 1 {
				delta = -delta
			}
			for i := range ps {
				ps[i].LeafIndex += delta
			}
			from += delta
		case 4:
			if len(ps) < 2 {
				return
			}
			k := (j + 1 + int(bit)%(len(ps)-1)) % len(ps)
			ps[j].Steps, ps[k].Steps = ps[k].Steps, ps[j].Steps
		}
		mr, err := RangeProofOf(from, ps)
		if err != nil {
			return
		}
		got, err := mr.Proofs(from, sub)
		if err != nil {
			return
		}
		for i := range got {
			if VerifyProof(tree.Root(), txs[start+i].ID(), got[i]) != nil {
				return
			}
		}
		t.Fatalf("mutation %d of run [%d,%d) of %d: every rebuilt proof verifies", kind%5, start, end, size)
	})
}
