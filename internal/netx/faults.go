package netx

import (
	"fmt"
	"sync"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/storage"
)

// This file is the real-network edge of the chaos layer: the same fault
// vocabulary the simulator injects on virtual links (simnet.FaultConfig:
// drop, corrupt, delay) exposed as a control-plane protocol op, so the
// integration harness (internal/contest) can script byzantine members and
// lossy servers against real TCP processes. Fault handling is disabled
// unless the server was armed with EnableChaos — a production-shaped server
// never honors a FaultReq.

// FaultConfig is the per-server fault-injection configuration. Rates are
// probabilities in [0, 1], evaluated independently per incoming request
// from one RNG seeded by Seed, so a scripted run replays the same fault
// decisions. The zero value injects nothing.
type FaultConfig struct {
	// DropRate is the probability an incoming request is dropped: the
	// connection is closed without a response, which the client sees as a
	// transport failure (the real-network analogue of simnet message loss).
	DropRate float64
	// CorruptRate is the probability a served chunk response has its
	// payload corrupted in flight: the last data byte of every chunk is
	// flipped in the encoded frame (storedChunks.appendStored), like the
	// simulator's bit-flip corruption, and the stored chunk is not touched —
	// the next read serves the original bytes. Proofs, headers and control
	// responses are never touched: chunk data is the integrity-checked
	// path.
	CorruptRate float64
	// Delay is a fixed extra latency applied to every request before it is
	// handled.
	Delay time.Duration
	// Seed seeds the fault RNG; 0 means 1.
	Seed uint64
}

func (c FaultConfig) enabled() bool {
	return c.DropRate > 0 || c.CorruptRate > 0 || c.Delay > 0
}

// faultState is one server's armed chaos machinery.
type faultState struct {
	mu  sync.Mutex
	cfg FaultConfig
	rng *blockcrypto.RNG

	dropped   int64
	corrupted int64
}

// EnableChaos arms fault handling: the server will honor FaultReq control
// ops from clients. Servers without it reject every FaultReq, so the op
// cannot be used against a node that did not opt in.
func (s *Server) EnableChaos() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.faults == nil {
		s.faults = &faultState{}
	}
}

// chaosState returns the armed fault layer, or nil when EnableChaos was
// never called.
func (s *Server) chaosState() *faultState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// set installs (or clears, with the zero config) the fault config.
func (f *faultState) set(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	f.rng = blockcrypto.NewRNG(seed)
}

// faultDecision is what the armed fault layer wants done with one request.
type faultDecision struct {
	drop    bool
	corrupt bool
	delay   time.Duration
}

// decide rolls the fault dice for one incoming request.
func (f *faultState) decide() faultDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.cfg.enabled() || f.rng == nil {
		return faultDecision{}
	}
	var d faultDecision
	d.delay = f.cfg.Delay
	if f.cfg.DropRate > 0 && f.rng.Float64() < f.cfg.DropRate {
		d.drop = true
		f.dropped++
		return d
	}
	if f.cfg.CorruptRate > 0 && f.rng.Float64() < f.cfg.CorruptRate {
		d.corrupt = true
		f.corrupted++
	}
	return d
}

// handleFault services the FaultReq control op on an armed fault layer.
func (s *Server) handleFault(f *faultState, r *FaultReq) *Response {
	resp := &FaultResp{}
	if r.Set != nil {
		f.set(*r.Set)
	}
	if r.CorruptStored {
		s.mu.Lock()
		for _, h := range s.store.Headers() {
			block := h.Hash()
			for _, idx := range s.store.ChunksForBlock(block) {
				if s.store.Corrupt(storage.ChunkID{Block: block, Index: idx}) {
					resp.Corrupted++
				}
			}
		}
		logf := s.logf
		s.mu.Unlock()
		if logf != nil {
			logf("fault.corrupt-stored", "count", resp.Corrupted)
		}
	}
	return &Response{Faults: resp}
}

// InjectFault sends a FaultReq control op: installing a fault config,
// corrupting stored chunks, or both. The server must have chaos armed.
func (c *Client) InjectFault(req FaultReq) (*FaultResp, error) {
	resp, err := c.roundTrip(&Request{Fault: &req})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if resp.Faults == nil {
		return nil, fmt.Errorf("netx: fault: %w", ErrBadRequest)
	}
	return resp.Faults, nil
}
