package netx

import "icistrategy/internal/trace"

// clientNode is the trace node label for the client side of the TCP
// protocol — clients are not cluster members and have no NodeID.
const clientNode = -1

// requestNames labels each request opcode for tracing.
var requestNames = [...]string{
	opNone:           "unknown",
	opPutHeader:      "put-header",
	opPutChunk:       "put-chunk",
	opGetHeaders:     "get-headers",
	opGetChunk:       "get-chunk",
	opGetBlockChunks: "get-block-chunks",
	opGetTxProof:     "get-txproof",
	opGetClusterMap:  "get-cluster-map",
	opSetClusterMap:  "set-cluster-map",
	opStats:          "stats",
	opFault:          "fault",
	opGetChunks:      "get-chunk-batch", // the name its spans had under the retired opcode
}

// reqName labels a request union for tracing.
func reqName(r *Request) string { return requestNames[r.opcode()] }

// SetTracer installs (or clears) the tracer for whole-cluster operations.
// DistributeBlock and RetrieveBlock then open one span per call, with a
// child span per TCP round-trip carrying the actual wire byte counts.
func (cl *Cluster) SetTracer(tr *trace.Tracer) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.tr = tr
}

// tracer returns the cluster's tracer (nil-safe for use as *Tracer).
func (cl *Cluster) tracer() *trace.Tracer {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.tr
}

// SetTracer installs (or clears) the tracer for served requests: every
// handled request emits one point event with its request-plus-response wire
// size.
func (s *Server) SetTracer(tr *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr = tr
}
