package erasure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Reed-Solomon errors.
var (
	ErrBadShardCounts    = errors.New("erasure: need 1 <= data shards and 0 <= parity, total <= 256")
	ErrShardCount        = errors.New("erasure: wrong number of shards")
	ErrShardSizeMismatch = errors.New("erasure: shards have different sizes")
	ErrTooFewShards      = errors.New("erasure: not enough shards to reconstruct")
	ErrShardNoData       = errors.New("erasure: shard has no data")
	ErrPayloadTooShort   = errors.New("erasure: joined payload shorter than declared length")
)

// Code is a systematic Reed-Solomon code with k data shards and m parity
// shards. The encoding matrix is the Vandermonde matrix made systematic by
// multiplying with the inverse of its top k x k block, so row i < k emits
// data shard i unchanged.
//
// A Code is immutable after New, so it is safe for concurrent use.
type Code struct {
	dataShards   int
	parityShards int
	// encode holds the full (k+m) x k systematic matrix.
	encode matrix
}

// New creates a code with the given shard counts. k must be >= 1, m >= 0,
// and k+m <= 256 (the field size).
func New(dataShards, parityShards int) (*Code, error) {
	if dataShards < 1 || parityShards < 0 || dataShards+parityShards > 256 {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrBadShardCounts, dataShards, parityShards)
	}
	total := dataShards + parityShards
	vm := vandermonde(total, dataShards)
	topInv, ok := vm[:dataShards].invert()
	if !ok {
		// Vandermonde top blocks are always invertible; this is unreachable
		// but kept as a guard against table corruption.
		return nil, errors.New("erasure: vandermonde top block singular")
	}
	return &Code{
		dataShards:   dataShards,
		parityShards: parityShards,
		encode:       vm.mul(topInv),
	}, nil
}

// DataShards returns k.
func (c *Code) DataShards() int { return c.dataShards }

// ParityShards returns m.
func (c *Code) ParityShards() int { return c.parityShards }

// TotalShards returns k+m.
func (c *Code) TotalShards() int { return c.dataShards + c.parityShards }

// Encode computes the parity shards for the given data shards. shards must
// have length k+m; the first k entries must be equal-length data, and the
// remaining m entries are overwritten (reusing their backing array when it
// is large enough, allocating otherwise).
func (c *Code) Encode(shards [][]byte) error {
	if len(shards) != c.TotalShards() {
		return fmt.Errorf("%w: got %d want %d", ErrShardCount, len(shards), c.TotalShards())
	}
	size, err := checkDataShards(shards[:c.dataShards])
	if err != nil {
		return err
	}
	for i := c.dataShards; i < len(shards); i++ {
		shards[i] = shardBuffer(shards[i], size)
		codeRow(c.encode[i], shards[:c.dataShards], shards[i])
	}
	return nil
}

// shardBuffer returns buf resized to size bytes, reusing its backing array
// when possible. Contents are unspecified (callers overwrite every byte).
func shardBuffer(buf []byte, size int) []byte {
	if cap(buf) >= size {
		return buf[:size]
	}
	return make([]byte, size)
}

func checkDataShards(data [][]byte) (int, error) {
	if len(data) == 0 || data[0] == nil {
		return 0, ErrShardNoData
	}
	size := len(data[0])
	if size == 0 {
		return 0, ErrShardNoData
	}
	for _, s := range data {
		if len(s) != size {
			return 0, ErrShardSizeMismatch
		}
	}
	return size, nil
}

// Reconstruct fills in the missing shards in place. A shard is missing when
// its length is zero (nil or empty; a zero-length slice with spare capacity
// is reused as the output buffer). It needs at least k present shards of
// equal size; a present shard of any other length is reported as
// ErrShardSizeMismatch — never silently resized or clobbered. On success
// every slot is populated and the data shards equal the originals.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.TotalShards() {
		return fmt.Errorf("%w: got %d want %d", ErrShardCount, len(shards), c.TotalShards())
	}
	present := make([]int, 0, len(shards))
	size := -1
	for i, s := range shards {
		if len(s) == 0 {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSizeMismatch
		}
		present = append(present, i)
	}
	if len(present) < c.dataShards {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(present), c.dataShards)
	}
	// Solve for any missing data shards using the first k present rows.
	var missingData []int
	for i := 0; i < c.dataShards; i++ {
		if len(shards[i]) == 0 {
			missingData = append(missingData, i)
		}
	}
	if len(missingData) > 0 {
		rows := present[:c.dataShards]
		inv, ok := c.encode.rows(rows).invert()
		if !ok {
			return errors.New("erasure: decode matrix singular")
		}
		inputs := make([][]byte, c.dataShards)
		for j, src := range rows {
			inputs[j] = shards[src]
		}
		for _, i := range missingData {
			shards[i] = shardBuffer(shards[i], size)
			codeRow(inv[i], inputs, shards[i])
		}
	}
	// Recompute any missing parity from the (now complete) data shards.
	for i := c.dataShards; i < len(shards); i++ {
		if len(shards[i]) == 0 {
			shards[i] = shardBuffer(shards[i], size)
			codeRow(c.encode[i], shards[:c.dataShards], shards[i])
		}
	}
	return nil
}

// Verify recomputes parity from the data shards and reports whether every
// shard is consistent.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	if len(shards) != c.TotalShards() {
		return false, fmt.Errorf("%w: got %d want %d", ErrShardCount, len(shards), c.TotalShards())
	}
	size, err := checkDataShards(shards[:c.dataShards])
	if err != nil {
		return false, err
	}
	buf := make([]byte, size)
	for i := c.dataShards; i < len(shards); i++ {
		if len(shards[i]) != size {
			return false, ErrShardSizeMismatch
		}
		codeRow(c.encode[i], shards[:c.dataShards], buf)
		if !bytes.Equal(buf, shards[i]) {
			return false, nil
		}
	}
	return true, nil
}

// Split partitions payload into k equal-size data shards (zero-padded), with
// an 8-byte length prefix so Join can recover the exact payload. The
// returned slice has k+m entries with parity already encoded. All shards
// share one backing allocation (each capped to its own range).
func (c *Code) Split(payload []byte) ([][]byte, error) {
	framedLen := 8 + len(payload)
	shardSize := (framedLen + c.dataShards - 1) / c.dataShards
	if shardSize == 0 {
		shardSize = 1
	}
	total := c.TotalShards()
	backing := make([]byte, total*shardSize)
	binary.BigEndian.PutUint64(backing, uint64(len(payload)))
	copy(backing[8:], payload)
	shards := make([][]byte, total)
	for i := range shards {
		shards[i] = backing[i*shardSize : (i+1)*shardSize : (i+1)*shardSize]
	}
	if err := c.Encode(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// Join reassembles the payload from the data shards (the first k entries of
// shards; parity entries are ignored). All data shards must be present —
// call Reconstruct first if any are missing.
func (c *Code) Join(shards [][]byte) ([]byte, error) {
	if len(shards) < c.dataShards {
		return nil, fmt.Errorf("%w: got %d want >= %d", ErrShardCount, len(shards), c.dataShards)
	}
	size, err := checkDataShards(shards[:c.dataShards])
	if err != nil {
		return nil, err
	}
	framed := make([]byte, 0, size*c.dataShards)
	for i := 0; i < c.dataShards; i++ {
		framed = append(framed, shards[i]...)
	}
	if len(framed) < 8 {
		return nil, ErrPayloadTooShort
	}
	n := binary.BigEndian.Uint64(framed)
	if n > uint64(len(framed)-8) {
		return nil, ErrPayloadTooShort
	}
	return framed[8 : 8+n], nil
}
