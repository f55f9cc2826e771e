package erasure

import (
	"bytes"
	"testing"
)

// FuzzRSReconstruct drives the Reed-Solomon codec with fuzzed payloads and
// parameters: split, drop up to the parity budget of shards, reconstruct,
// verify, join — the recovered payload must match the original exactly. A
// second phase feeds the reconstructor deliberately jagged garbage shards,
// which must error, never panic.
func FuzzRSReconstruct(f *testing.F) {
	f.Add([]byte("hello erasure coding"), uint8(4), uint8(2), uint16(0b101))
	f.Add([]byte{}, uint8(1), uint8(1), uint16(1))
	f.Add(bytes.Repeat([]byte{0xAB}, 300), uint8(10), uint8(6), uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, payload []byte, kRaw, mRaw uint8, dropMask uint16) {
		k := int(kRaw)%10 + 1 // 1..10
		m := int(mRaw)%6 + 1  // 1..6
		code, err := New(k, m)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", k, m, err)
		}
		shards, err := code.Split(payload)
		if err != nil {
			t.Fatalf("Split: %v", err)
		}
		if len(shards) != k+m {
			t.Fatalf("Split returned %d shards, want %d", len(shards), k+m)
		}
		// Drop up to m shards, chosen by the fuzzed mask.
		dropped := 0
		for i := 0; i < len(shards) && dropped < m; i++ {
			if dropMask&(1<<uint(i%16)) != 0 {
				shards[i] = nil
				dropped++
			}
		}
		if err := code.Reconstruct(shards); err != nil {
			t.Fatalf("Reconstruct after %d ≤ %d losses: %v", dropped, m, err)
		}
		if ok, err := code.Verify(shards); err != nil || !ok {
			t.Fatalf("Verify after reconstruct: ok=%v err=%v", ok, err)
		}
		got, err := code.Join(shards)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload drifted through the code: %d bytes in, %d out", len(payload), len(got))
		}

		// Adversarial phase: jagged shards sliced from the fuzz payload.
		// Any outcome but a panic is acceptable.
		bad := make([][]byte, k+m)
		for i := range bad {
			if len(payload) == 0 {
				continue
			}
			end := (i*7 + int(dropMask)) % (len(payload) + 1)
			bad[i] = payload[:end]
		}
		_ = code.Reconstruct(bad)
		_, _ = code.Verify(bad)
		_, _ = code.Join(bad)
	})
}
