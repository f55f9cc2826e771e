package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"icistrategy/internal/chain"
)

// refusesEveryRead asserts that every read of id — Chunk, and LendChunk
// with and without proofs — fails with ErrCorrupted and lends nothing.
func refusesEveryRead(t testing.TB, s *Store, id ChunkID, what string) {
	t.Helper()
	if _, err := s.Chunk(id); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("%s: Chunk returned %v, want %v", what, err, ErrCorrupted)
	}
	for _, withProofs := range []bool{false, true} {
		lent := false
		err := s.LendChunk(id, withProofs, func(Chunk) { lent = true })
		if !errors.Is(err, ErrCorrupted) || lent {
			t.Fatalf("%s: LendChunk(proofs %v) returned %v (lent %v), want %v", what, withProofs, err, lent, ErrCorrupted)
		}
	}
}

// readsBack asserts that Chunk returns id with exactly want as its bytes.
func readsBack(t testing.TB, s *Store, id ChunkID, want []byte, what string) {
	t.Helper()
	got, err := s.Chunk(id)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatalf("%s: read back other bytes", what)
	}
}

// TestEverySmallDamageIsCaught: a CRC-32C catches every change confined to
// 32 consecutive bits, so on a stored chunk of the benchmark's size every
// flipped bit, and every 2-, 3- and 4-byte burst written over the stored
// bytes, is refused by every read. Once the damage is undone, the chunk and
// its undamaged twin read back as put.
func TestEverySmallDamageIsCaught(t *testing.T) {
	s := NewStore()
	c, twin := testChunk(5, 0, 2800), testChunk(5, 1, 2800)
	orig := append([]byte(nil), c.Data...)
	for _, x := range []Chunk{c, twin} {
		if err := s.PutChunk(x); err != nil {
			t.Fatal(err)
		}
	}
	stored := heldRecord(t, s, c.ID).buf // a chunk put without proofs is its payload
	saved := make([]byte, 4)
	damage := func(at int, burst []byte, xor bool) {
		n := copy(saved, stored[at:at+len(burst)])
		for i, b := range burst {
			if xor {
				stored[at+i] ^= b
			} else {
				stored[at+i] = b
			}
		}
		if bytes.Equal(stored[at:at+n], saved[:n]) {
			return // the pattern is what was there: no damage
		}
		refusesEveryRead(t, s, c.ID, fmt.Sprintf("%d-byte damage %x at %d", len(burst), burst, at))
		copy(stored[at:], saved[:n])
		readsBack(t, s, c.ID, orig, "repaired chunk")
		readsBack(t, s, twin.ID, orig, "undamaged twin")
	}
	bursts := [][]byte{
		{0x00, 0x00}, {0xff, 0xff}, {0xa5, 0x5a},
		{0x00, 0x00, 0x00}, {0xff, 0xff, 0xff}, {0xa5, 0x5a, 0xa5},
		{0x00, 0x00, 0x00, 0x00}, {0xff, 0xff, 0xff, 0xff}, {0xa5, 0x5a, 0xa5, 0x5a},
	}
	for at := range stored {
		for bit := 0; bit < 8; bit++ {
			damage(at, []byte{1 << bit}, true)
		}
		for _, b := range bursts {
			if at+len(b) <= len(stored) {
				damage(at, b, false)
			}
		}
	}
}

// withCRC returns data followed by its CRC-32C, little-endian. Every
// payload so ended has one and the same CRC-32C, the code's residue: the
// checksum is affine over GF(2), and the appended value cancels what the
// payload contributed.
func withCRC(data []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crc32.Checksum(data, castagnoli))
}

// TestEqualChecksumIsNotARepeat: a re-put under a held ID is a no-op only
// for the same bytes. Two payloads of one length with one checksum are not
// the same chunk: the second is refused, and the first stays stored.
func TestEqualChecksumIsNotARepeat(t *testing.T) {
	base := testChunk(6, 0, 2796)
	a := NewChunk(base.ID, withCRC(base.Data))
	base.Data[100] ^= 0x01
	b := NewChunk(base.ID, withCRC(base.Data))
	if bytes.Equal(a.Data, b.Data) || len(a.Data) != len(b.Data) || a.Digest != b.Digest {
		t.Fatalf("payloads equal %v, lengths %d and %d, checksums %08x and %08x: want two payloads of one length and checksum",
			bytes.Equal(a.Data, b.Data), len(a.Data), len(b.Data), a.Digest, b.Digest)
	}
	s := NewStore()
	if err := s.PutChunk(a); err != nil {
		t.Fatal(err)
	}
	if err := s.PutChunk(b); err == nil {
		t.Fatal("other bytes with an equal checksum were taken for a repeat")
	}
	if err := s.PutChunk(NewChunk(a.ID, append([]byte(nil), a.Data...))); err != nil {
		t.Fatalf("an identical re-put was refused: %v", err)
	}
	readsBack(t, s, a.ID, a.Data, "the first put")
	if st := s.Stats(); st.ChunkCount != 1 || st.ChunkBytes != int64(len(a.Data)) {
		t.Fatalf("stats after the re-puts: %+v", st)
	}
}

// TestPutReplacesADamagedCopy: a held copy damaged in place no longer
// passes its own checksum, and a put of the sound bytes replaces it — the
// repair path's put — with the accounting unchanged.
func TestPutReplacesADamagedCopy(t *testing.T) {
	c := testChunk(7, 1, 1200)
	s := NewStore()
	if err := s.PutChunk(c); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if !s.Corrupt(c.ID) {
		t.Fatal("chunk not held")
	}
	if _, err := s.Chunk(c.ID); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("damaged read: %v, want ErrCorrupted", err)
	}
	if err := s.PutChunk(NewChunk(c.ID, append([]byte(nil), c.Data...))); err != nil {
		t.Fatalf("the sound copy was refused: %v", err)
	}
	readsBack(t, s, c.ID, c.Data, "the replacing put")
	if after := s.Stats(); after != before {
		t.Fatalf("stats %+v after the replacement, %+v before the damage", after, before)
	}
}

// heldRecord returns the store's own record of id.
func heldRecord(tb testing.TB, s *Store, id ChunkID) *record {
	tb.Helper()
	recs, i, ok := s.find(id)
	if !ok {
		tb.Fatalf("chunk %s not held", id)
	}
	return &recs[i]
}

// FuzzStoredChunkDamage damages 1 to 4 consecutive bytes anywhere in the
// stored record of a proven chunk — its payload or the Merkle edge behind
// it — cut from a block of up to 96 transactions carrying an arbitrary
// payload. Every read must refuse a damaged payload. A damaged edge leaves
// the payload readable; of the proofs rebuilt from it, some fail to verify
// against the block's root, and none that differs from the proof put
// verifies. A copy stored beside it reads back byte for byte, with the
// proofs put.
func FuzzStoredChunkDamage(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint8(0), uint16(0), uint8(0), uint32(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 40), uint8(95), uint8(12), uint16(2900), uint8(3), uint32(0xffffffff))
	f.Add([]byte("a chunk of a block body"), uint8(11), uint8(200), uint16(20), uint8(3), uint32(0x80000001))
	f.Fuzz(func(t *testing.T, payload []byte, txs, run uint8, at uint16, width uint8, mask uint32) {
		n := 1 + int(txs)%96
		start := int(run) % n
		count := 1 + int(run/7)%(n-start)
		block := testTxs(n, payload[:min(len(payload), 256)])
		damaged, proofs := provenRun(t, block, 0, start, count)
		twin, _ := provenRun(t, block, 1, start, count)
		body := append([]byte(nil), damaged.Data...)
		s := NewStore()
		for _, x := range []Chunk{damaged, twin} {
			if err := s.PutChunk(x); err != nil {
				t.Fatal(err)
			}
		}
		rec := heldRecord(t, s, damaged.ID)
		off := int(at) % len(rec.buf)
		k := min(1+int(width)%4, len(rec.buf)-off)
		mask |= 1 // at least the first byte changes
		for i := 0; i < k; i++ {
			rec.buf[off+i] ^= byte(mask >> (8 * i))
		}
		if off < rec.size {
			refusesEveryRead(t, s, damaged.ID, "damaged payload")
		} else {
			readsBack(t, s, damaged.ID, body, "payload before a damaged edge")
			if err := s.LendChunk(damaged.ID, true, func(c Chunk) {
				refused := 0
				for i, p := range c.Proofs {
					switch {
					case chain.VerifyProof(damaged.ID.Block, block[start+i].ID(), p) != nil:
						refused++
					case !reflect.DeepEqual(p, proofs[i]):
						t.Fatalf("proof %d rebuilt from a damaged edge verifies, and is not the proof put", i)
					}
				}
				if refused == 0 { // every edge hash is a sibling in some proof of the run
					t.Fatal("every proof rebuilt from a damaged edge verifies")
				}
			}); err != nil && !errors.Is(err, chain.ErrProofMalformed) {
				t.Fatalf("proofs from a damaged edge: %v", err)
			}
		}
		readsBack(t, s, twin.ID, body, "undamaged copy")
		if err := s.LendChunk(twin.ID, true, func(c Chunk) {
			if !reflect.DeepEqual(c.Proofs, proofs) {
				t.Error("the undamaged copy's proofs are not the ones put")
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}
