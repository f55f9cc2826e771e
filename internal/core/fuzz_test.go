package core

import (
	"bytes"
	"reflect"
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/storage"
)

// FuzzReassembleEncoding holds ReassembleEncoding to the decoded reference
// (reassembleDecoded) over a seeded block's stored copies. The fuzzer moves
// the cut points between the copies (cuts[i] shifts the end of copy i by
// that many transactions), has one copy claim other position fields (a
// mis-cut), and flips one byte of the copies' bodies. ReassembleEncoding
// must accept exactly when the reference does, and then return the
// reference block's encoding with the tree of the header's root.
func FuzzReassembleEncoding(f *testing.F) {
	b := fixtureBlock(f, 11)
	f.Add(uint8(4), []byte{}, uint8(0), int8(0), int8(0), int8(0), uint16(0), byte(0))        // as split
	f.Add(uint8(1), []byte{}, uint8(0), int8(0), int8(0), int8(0), uint16(0), byte(0))        // one copy
	f.Add(uint8(4), []byte{1, 0xff}, uint8(0), int8(0), int8(0), int8(0), uint16(0), byte(0)) // a cut moved
	f.Add(uint8(4), []byte{0, 0, 0, 0xff}, uint8(0), int8(0), int8(0), int8(0), uint16(0), byte(0))
	f.Add(uint8(3), []byte{}, uint8(1), int8(1), int8(0), int8(0), uint16(0), byte(0))  // another index
	f.Add(uint8(3), []byte{}, uint8(2), int8(0), int8(1), int8(0), uint16(0), byte(0))  // another part count
	f.Add(uint8(3), []byte{1}, uint8(1), int8(0), int8(0), int8(1), uint16(0), byte(0)) // a moved cut, claimed
	f.Add(uint8(4), []byte{}, uint8(0), int8(0), int8(0), int8(0), uint16(2), byte(1))  // the count
	f.Add(uint8(4), []byte{}, uint8(0), int8(0), int8(0), int8(0), uint16(77), byte(8)) // inside a transaction
	f.Add(uint8(13), []byte{}, uint8(0), int8(0), int8(0), int8(0), uint16(0), byte(0)) // more copies than txs
	f.Add(uint8(0), []byte{}, uint8(0), int8(0), int8(0), int8(0), uint16(0), byte(0))  // none
	f.Fuzz(func(t *testing.T, parts uint8, cuts []byte, which uint8, dIndex, dParts, dStart int8, flipAt uint16, flip byte) {
		n := int(parts % 16)
		copies := make([]storedCopy, n)
		if n > 0 {
			counts, err := SplitCounts(len(b.Txs), n)
			if err != nil {
				t.Fatal(err)
			}
			start := 0
			for i := range copies {
				shift := 0
				if i < len(cuts) {
					shift = int(int8(cuts[i]))
				}
				end := min(max(start+counts[i]+shift, start), len(b.Txs))
				if i == n-1 && i >= len(cuts) {
					end = len(b.Txs)
				}
				sub := Group{Txs: b.Txs[start:end]}
				copies[i] = storedCopy{i, n, start, sub.Encode()}
				start = end
			}
			k := int(which) % n
			copies[k].index += int(dIndex)
			copies[k].parts += int(dParts)
			copies[k].txStart += int(dStart)
		}
		total := 0
		for _, c := range copies {
			total += len(c.body)
		}
		if flip != 0 && total > 0 {
			at := int(flipAt) % total
			for i := range copies {
				if at < len(copies[i].body) {
					copies[i].body[at] ^= flip
					break
				}
				at -= len(copies[i].body)
			}
		}

		enc, tree, err := reassembleStored(b.Header, copies)
		ref, rerr := reassembleDecoded(b.Header, copies)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("ReassembleEncoding says %v, the decoded reference %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(enc, ref.Encode()) || tree.Root() != b.Header.MerkleRoot || tree.NumLeaves() != len(ref.Txs) {
			t.Fatal("ReassembleEncoding accepted, but not the reference block's encoding and tree")
		}
	})
}

// FuzzAdoptChunk holds AdoptChunk, the one check every member runs on a
// chunk it receives, to a test-side reference: the bytes decoded
// (chain.DecodeBody), then ownerSeq — the position rule and the sequential
// proof and signature loop. The fuzzer rewrites a seeded group's stored
// bytes, moves its index, part count and TxStart, and moves one proof's
// leaf index. The group is small so that minimizing an input, which checks
// its signatures at every step, stays quick. AdoptChunk must accept exactly when the reference does, and an
// accepted chunk must be the bytes received, not a re-encoding of them.
func FuzzAdoptChunk(f *testing.F) {
	b := fixtureBlock(f, 11)
	groups, err := SplitBlock(b, 4)
	if err != nil {
		f.Fatal(err)
	}
	hdr, good := b.Header, groups[1] // three transactions from TxStart 3
	enc := good.Encode()
	cut := good
	cut.Txs = good.Txs[:len(good.Txs)-1]
	if _, err := AdoptChunk(hdr, good.Index, good.Parts, good.TxStart, enc, good.Proofs); err != nil {
		f.Fatalf("the seeded group is refused: %v", err) // the seeds would test refusals only
	}
	f.Add(enc, int8(0), int8(0), int8(0), uint8(0), int8(0))                                        // as sent
	f.Add(cut.Encode(), int8(0), int8(0), int8(0), uint8(0), int8(0))                               // one transaction short
	f.Add(enc[:len(enc)-1], int8(0), int8(0), int8(0), uint8(0), int8(0))                           // torn
	f.Add([]byte{}, int8(0), int8(0), int8(0), uint8(0), int8(0))                                   // no bytes
	f.Add(enc, int8(1), int8(0), int8(0), uint8(0), int8(0))                                        // another index
	f.Add(enc, int8(0), int8(-1), int8(0), uint8(0), int8(0))                                       // another part count
	f.Add(enc, int8(0), int8(0), int8(1), uint8(0), int8(0))                                        // another TxStart
	f.Add(enc, int8(0), int8(0), int8(0), uint8(2), int8(1))                                        // a proof's leaf index
	f.Add(append(bytes.Clone(enc[:40]), enc[41:]...), int8(0), int8(0), int8(0), uint8(0), int8(0)) // a byte gone
	f.Fuzz(func(t *testing.T, data []byte, dIndex, dParts, dStart int8, proof uint8, dLeaf int8) {
		index, parts, txStart := good.Index+int(dIndex), good.Parts+int(dParts), good.TxStart+int(dStart)
		proofs := append([]chain.Proof(nil), good.Proofs...)
		proofs[int(proof)%len(proofs)].LeafIndex += int(dLeaf)
		in := bytes.Clone(data)

		chk, err := AdoptChunk(hdr, index, parts, txStart, data, proofs)
		ref := func() error {
			txs, err := chain.DecodeBody(in)
			if err != nil {
				return err
			}
			return ownerSeq(hdr, Group{Index: index, Parts: parts, TxStart: txStart, Txs: txs, Proofs: proofs})
		}()
		if (err == nil) != (ref == nil) {
			t.Fatalf("AdoptChunk says %v, the reference %v", err, ref)
		}
		if err != nil {
			return
		}
		if len(chk.Data) != len(data) || &chk.Data[0] != &data[0] || !bytes.Equal(data, in) {
			t.Fatal("an adopted chunk is not the bytes received")
		}
		want := storage.NewChunk(storage.ChunkID{Block: hdr.Hash(), Index: index}, in)
		want.Parts, want.TxStart, want.Proofs = parts, txStart, proofs
		if !reflect.DeepEqual(chk, want) {
			t.Fatalf("adopted %+v, want %+v", chk, want)
		}
	})
}
