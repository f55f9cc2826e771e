package netx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frame builds a protocol frame by hand: length prefix, version, opcode,
// request id, fields.
func frame(version, op uint8, id uint32, fields []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(frameHeaderSize-4+len(fields)))
	out = append(out, version, op)
	out = binary.BigEndian.AppendUint32(out, id)
	return append(out, fields...)
}

// encoded returns the frame WriteMessage produces for m.
func encoded(t testing.TB, m wireMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return buf.Bytes()
}

// FuzzReadMessage feeds arbitrary byte streams to the frame decoder, as a
// request and as a response. Malformed, truncated and oversized frames must
// all come back as errors — never a panic, and never an allocation sized by
// a hostile length prefix. A frame that decodes must re-encode, and the
// re-encoding must decode to a message that encodes to the same bytes.
func FuzzReadMessage(f *testing.F) {
	// Corpus: empty, truncated length, length with no body, a length below
	// the header size, a frame claiming far more than it carries, an
	// oversized claim, a wrong version, an unknown opcode, and one frame of
	// every message variant.
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 9})
	f.Add([]byte{0, 0, 0, 3, 1, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add(frame(wireVersion, opGetChunk, 1, []byte("short")))
	f.Add(frame(wireVersion+1, opStats, 1, nil))
	f.Add(frame(wireVersion, 0x3f, 1, nil))
	for _, m := range sampleMessages(f) {
		f.Add(encoded(f, m.msg))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() wireMessage{
			func() wireMessage { return new(Request) },
			func() wireMessage { return new(Response) },
		} {
			msg := fresh()
			if err := ReadMessage(bytes.NewReader(data), msg); err != nil {
				continue
			}
			first := encoded(t, msg)
			again := fresh()
			if err := ReadMessage(bytes.NewReader(first), again); err != nil {
				t.Fatalf("re-decode of accepted %T: %v", msg, err)
			}
			if second := encoded(t, again); !bytes.Equal(first, second) {
				t.Fatalf("%T does not re-encode to the same bytes:\n%x\n%x", msg, first, second)
			}
		}
	})
}

// TestReadMessageTruncatedBody pins the incremental-read hardening: a frame
// header claiming the full 64 MiB on a stream that ends after a few bytes
// must fail with ErrUnexpectedEOF after reading only what arrived, not
// allocate the claimed size up front.
func TestReadMessageTruncatedBody(t *testing.T) {
	hdr := make([]byte, 4, 12)
	binary.BigEndian.PutUint32(hdr, maxMessageSize)
	stream := append(hdr, 1, 2, 3)
	var req Request
	err := ReadMessage(bytes.NewReader(stream), &req)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() {
		var r Request
		_ = ReadMessage(bytes.NewReader(stream), &r)
	})
	runtime.ReadMemStats(&after)
	if allocs > 20 {
		t.Fatalf("truncated read allocates too much: %.0f allocs/run", allocs)
	}
	// The frame buffer grows by what arrives (one 64 KiB step here), never
	// by the 64 MiB the header claims.
	if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perRun > 1<<20 {
		t.Fatalf("truncated read allocates %d bytes/run for a 3-byte body", perRun)
	}
}

// TestReadMessageOversizedClaim pins the size ceiling: a frame claiming
// more than maxMessageSize is rejected before any body read.
func TestReadMessageOversizedClaim(t *testing.T) {
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, maxMessageSize+1)
	var req Request
	if err := ReadMessage(bytes.NewReader(hdr), &req); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}
