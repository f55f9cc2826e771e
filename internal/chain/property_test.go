package chain

import (
	"testing"
	"testing/quick"

	"icistrategy/internal/blockcrypto"
)

func TestDecodeHeaderNoPanicOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeHeader(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBlockNoPanicOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeBlock(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBodyNoPanicOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeBody(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBlockBitFlips flips single bits of a valid encoding: decoding
// must either fail or produce a block that no longer passes VerifyShape
// with the original hash — silent corruption is the one forbidden outcome.
func TestDecodeBlockBitFlips(t *testing.T) {
	b := newTestBlock(t, 0, blockcrypto.ZeroHash, 6)
	enc := b.Encode()
	orig := b.Hash()
	for bit := 0; bit < len(enc)*8; bit += 97 {
		mut := append([]byte(nil), enc...)
		mut[bit/8] ^= 1 << (bit % 8)
		got, err := DecodeBlock(mut)
		if err != nil {
			continue
		}
		if got.Hash() == orig && got.VerifyShape() == nil {
			// Header unchanged and the body still matches the root: the
			// flip must therefore have been inside a signature and the
			// transaction set unchanged — but any body flip changes tx
			// IDs, so this means the encoding was not actually mutated.
			same := true
			for i := range enc {
				if enc[i] != mut[i] {
					same = false
					break
				}
			}
			if !same {
				t.Fatalf("bit %d: silent corruption survived shape verification", bit)
			}
		}
	}
}
