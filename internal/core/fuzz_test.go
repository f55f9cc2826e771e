package core

import (
	"bytes"
	"testing"
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
