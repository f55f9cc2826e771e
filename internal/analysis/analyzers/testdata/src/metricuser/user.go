// Package metricuser is the metricname golden fixture: every registered
// name must be a compile-time string in the ici/consensus/simnet/netx
// namespaces so metric snapshots stay stable and greppable.
package metricuser

import (
	"fmt"

	"metrics"
)

const goodName = "consensus.votes"

func register(r *metrics.Registry, shard int) {
	r.Counter("ici.retrieve.rounds").Inc()
	r.Counter(goodName).Inc()
	r.Counter("simnet.delivery.dropped").Inc()
	r.Counter("netx.frame.bytes").Inc()

	r.Counter("retrieve_rounds").Inc()                        // want `does not match`
	r.Counter("ICI.Retrieve.Rounds").Inc()                    // want `does not match`
	r.Counter("ici.").Inc()                                   // want `does not match`
	r.Counter(fmt.Sprintf("ici.shard%d.rounds", shard)).Inc() // want `literal`
}
