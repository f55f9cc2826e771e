package main

import (
	"bytes"
	"crypto/ed25519"
	"encoding/gob"
	"fmt"
	"time"
)

// The reference kernels. The benchmark runs on a few cores of a shared
// host whose memory system is contended for minutes at a time: in such a
// stretch allocation-heavy code (the wire codec, which is most of a read)
// runs 30-50 % slower while pure computation (signature checks) runs about
// 5 % slower, and a stretch outlasts any run the contract allows. A raw
// time therefore says more about when it was taken than about the code.
//
// So every reported time is taken next to two small kernels that use only
// the standard library and never change with the repository — a codec
// kernel (gob-encode and decode a chunk-batch-shaped message with a fresh
// encoder each time, as netx does) and a signature kernel (Ed25519
// verification) — and is divided by the machine's slowdown as those
// kernels saw it at that moment: their measured time over their nominal
// time, weighted the way the workload's CPU profile is split between the
// two kinds of work. A reported time is thus "at reference speed": what
// the operation takes when the kernels run at their nominal times, which
// are this machine's in a quiet stretch. A change to the repository's code
// moves it exactly as it moves the raw time; a slow stretch of the host
// does not. The raw times and the kernels' readings go to standard error.

const (
	refCodecNominalMs = 32.0 // one pass of each kernel on the builder's
	refSigNominalMs   = 9.5  // machine in a quiet stretch
)

// A reading is the median of refRepeats passes. The codec kernel's time
// jitters with the collector, so its passes are the longer ones. -quick
// shrinks all three.
var (
	refCodecIters = 420
	refSigIters   = 200
	refRepeats    = 3
)

type refProof struct {
	Index int
	Path  [][]byte
}

type refChunk struct {
	Block   [32]byte
	Index   int
	Parts   int
	TxStart int
	Data    []byte
	Proofs  []refProof
}

// refMessage is shaped like a two-chunk GetChunkBatch reply: 12
// transactions and their Merkle proofs per chunk.
type refMessage struct {
	Chunks []refChunk
	Err    string
}

var (
	refMsg = func() refMessage {
		var m refMessage
		for c := 0; c < 2; c++ {
			ch := refChunk{Index: c, Parts: 8, TxStart: 12 * c, Data: make([]byte, 2700)}
			for i := range ch.Data {
				ch.Data[i] = byte(i * 7)
			}
			for p := 0; p < 12; p++ {
				pr := refProof{Index: p}
				for k := 0; k < 7; k++ {
					pr.Path = append(pr.Path, make([]byte, 32))
				}
				ch.Proofs = append(ch.Proofs, pr)
			}
			m.Chunks = append(m.Chunks, ch)
		}
		return m
	}()
	refPub, refPriv = func() (ed25519.PublicKey, ed25519.PrivateKey) {
		priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
		return priv.Public().(ed25519.PublicKey), priv
	}()
	refSigned = make([]byte, 200)
	refSig    = ed25519.Sign(refPriv, refSigned)
)

func refCodecPass() error {
	for i := 0; i < refCodecIters; i++ {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&refMsg); err != nil {
			return err
		}
		var out refMessage
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			return err
		}
		if len(out.Chunks) != len(refMsg.Chunks) {
			return fmt.Errorf("reference codec kernel decoded %d chunks", len(out.Chunks))
		}
	}
	return nil
}

func refSigPass() error {
	for i := 0; i < refSigIters; i++ {
		if !ed25519.Verify(refPub, refSigned, refSig) {
			return fmt.Errorf("reference signature kernel: verification failed")
		}
	}
	return nil
}

// refReading is one timing of the kernels, in milliseconds per pass. A
// kernel that was not run reads its nominal time.
type refReading struct{ codec, sig float64 }

// readRef times, on the calling goroutine, the kernels that have a share
// in need.
func readRef(need refMix) (refReading, error) {
	r := refReading{codec: refCodecNominalMs, sig: refSigNominalMs}
	var err error
	if need.codec > 0 {
		if r.codec, err = timePasses(refCodecPass); err != nil {
			return r, err
		}
	}
	if need.sig > 0 {
		if r.sig, err = timePasses(refSigPass); err != nil {
			return r, err
		}
	}
	return r, nil
}

// timePasses returns the median time of refRepeats passes of a kernel.
func timePasses(pass func() error) (float64, error) {
	var t []float64
	for i := 0; i < refRepeats; i++ {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		t = append(t, ms(time.Since(t0)))
	}
	return median(t), nil
}

// refMix is how a phase's CPU time is split between codec-like and
// signature-like work; the shares sum to 1.
type refMix struct{ codec, sig float64 }

// The mixes, from CPU profiles of each phase (README.md, "Reference
// speed").
var (
	mixReads    = refMix{codec: 0.9, sig: 0.1}   // gob, malloc and the collector are about 90 % of a read
	mixWrites   = refMix{codec: 0.35, sig: 0.65} // Ed25519 in handlePutChunk 57 %, gob 32 %
	mixTCPSetup = mixWrites                      // preloading a read workload's cluster is the same writes
	mixSigning  = refMix{codec: 0, sig: 1}       // generating a chain is signing its transactions
	mixSim      = refMix{codec: 0, sig: 1}       // 91 % Ed25519; the simulator's engine is under 2 %
)

// slowdown is how much slower than nominal the machine runs work of this
// mix, going by the readings taken before and after it.
func (m refMix) slowdown(before, after refReading) float64 {
	codec := (before.codec + after.codec) / 2 / refCodecNominalMs
	sig := (before.sig + after.sig) / 2 / refSigNominalMs
	return m.codec*codec + m.sig*sig
}

// refTimer hands out a reading per call and remembers the previous one, so
// that consecutive phases share the reading between them.
type refTimer struct {
	need refMix // the kernels the run's mixes use; the others are not run
	last refReading
	log  []refReading
}

// newRefTimer takes the first reading. mixes are the ones the run will ask
// slowdowns for.
func newRefTimer(mixes ...refMix) (*refTimer, error) {
	r := &refTimer{}
	for _, m := range mixes {
		r.need.codec += m.codec
		r.need.sig += m.sig
	}
	_, err := r.next()
	return r, err
}

// next takes a reading and returns the one before it.
func (r *refTimer) next() (prev refReading, err error) {
	prev = r.last
	if r.last, err = readRef(r.need); err != nil {
		return prev, err
	}
	r.log = append(r.log, r.last)
	return prev, nil
}

// since takes a reading and returns the slowdown, for mix m, of whatever
// ran since the reading before it.
func (r *refTimer) since(m refMix) (float64, error) {
	prev, err := r.next()
	if err != nil {
		return 0, err
	}
	return m.slowdown(prev, r.last), nil
}

// report logs the readings of a run: the state the machine was in.
func (r *refTimer) report(workload string) {
	var codec, sig []float64
	for _, rd := range r.log {
		codec, sig = append(codec, rd.codec), append(sig, rd.sig)
	}
	logf("%s: reference kernels over %d readings: codec %.2f ms (nominal %.2f), signature %.2f ms (nominal %.2f)",
		workload, len(r.log), median(codec), refCodecNominalMs, median(sig), refSigNominalMs)
	logf("%s: codec readings %.2f", workload, codec)
	logf("%s: signature readings %.2f", workload, sig)
}
