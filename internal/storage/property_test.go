package storage

import (
	"testing"

	"icistrategy/internal/blockcrypto"
)

// TestStoreAccountingAlwaysConsistent drives a store with a random
// put/delete/GC sequence and checks after every operation that the
// stats match a shadow model computed from scratch.
func TestStoreAccountingAlwaysConsistent(t *testing.T) {
	rng := blockcrypto.NewRNG(8080)
	s := NewStore()
	shadow := make(map[ChunkID]int) // id -> size

	check := func(step int) {
		t.Helper()
		var bytes int64
		for _, sz := range shadow {
			bytes += int64(sz)
		}
		st := s.Stats()
		if st.ChunkBytes != bytes || st.ChunkCount != int64(len(shadow)) {
			t.Fatalf("step %d: stats %+v, shadow %d chunks %d bytes", step, st, len(shadow), bytes)
		}
	}

	idFor := func(i int) ChunkID {
		return ChunkID{Block: blockcrypto.Sum256([]byte{byte(i % 7)}), Index: i % 11}
	}
	for step := 0; step < 2000; step++ {
		id := idFor(rng.Intn(77))
		switch rng.Intn(4) {
		case 0, 1: // put
			size := rng.Intn(100) + 1
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			// Same ID must carry the same data (store rejects conflicts):
			// derive data deterministically from the ID instead.
			data = append(id.Block[:8:8], byte(id.Index))
			if err := s.PutChunk(NewChunk(id, data)); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			shadow[id] = len(data)
		case 2: // delete
			s.DeleteChunk(id)
			delete(shadow, id)
		case 3: // GC everything with Index >= 6
			s.GC(func(c Chunk) bool { return c.ID.Index < 6 })
			for cid := range shadow {
				if cid.Index >= 6 {
					delete(shadow, cid)
				}
			}
		}
		check(step)
	}
}
