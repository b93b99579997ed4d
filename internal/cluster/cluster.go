// Package cluster implements the federated metric cluster: many
// simulated nodes — each its own pcp.Daemon with distinct architecture
// parameters and noise seed — behind a hierarchical aggregation tree of
// federators (the pmproxy-federation analogue of PCP's pmproxy chains).
//
// The tree is leaf → zone → root with a configurable fan-out. Each
// federator owns one pmproxy.Upstream per child edge, so every fetch is
// a scatter-gather with per-child deadlines, hedged retries against
// slow subtrees, and per-edge counters. Results are partial by design:
// when k of N nodes are down, a root query still answers from the
// survivors and names exactly the missing nodes in a typed
// *pcp.PartialError that travels through the PDU layer
// (PDUFetchPartialResp) and up through metricql.
//
// Namespace convention: a federator qualifies each leaf's metrics with
// the node name — node003:mem.read_bw — so the node becomes a label
// dimension ("sum(mem.read_bw) by (node)") instead of a separate
// connection.
//
// Every node's metrics are self-certifying: the value of metric pmid on
// a node with noise seed s at daemon time t is MetricValue(s, pmid, t),
// a full-avalanche mix. A consistent cluster snapshot is therefore
// checkable by recomputation: hold the shared simulated clock still,
// force every daemon past its sampling interval, and every value served
// anywhere in the tree must certify against the single virtual
// timestamp (built on the daemon's atomic snapshot identity — a fetch
// is never torn across samples, so one wrong-time value means one
// inconsistent node, not a torn buffer).
package cluster

import "papimc/internal/xrand"

// Gamma constants decorrelating the seed, pmid and timestamp inputs of
// the value model (SplitMix64's increment and two odd mixers).
const (
	certGamma = 0x9E3779B97F4A7C15
	seedGamma = 0xBF58476D1CE4E5B9
)

// MetricValue is the self-certifying value model: what metric pmid on
// the node with noise seed seed must read at daemon time ts. Full
// avalanche on every input, so a stale, torn, or wrong-node value
// disagrees with its claimed (node, pmid, timestamp) binding in ~half
// its bits and is caught by recomputation.
func MetricValue(seed uint64, pmid uint32, ts int64) uint64 {
	return xrand.Mix(xrand.Mix(seed*seedGamma) ^ (uint64(ts)*certGamma + uint64(pmid)))
}
