// Package cluster is the scale-out serving tier: a consistent-hash ring
// that shards the annotation catalog across dexa-serve instances, WAL
// streaming replication so read replicas tail a leader's store, and a
// router that reads the other shards for the query answers a shard
// builds itself, byte-identical to a single node holding the whole
// catalog.
//
// The pieces compose rather than couple:
//
//   - Ring / Config: deterministic module→shard placement from a static
//     membership file every node loads (ring.go, config.go)
//   - Feed / Follower: the leader-side GET /wal long-poll feed and the
//     follower loop that tails it through the store's replicated apply
//     path (feed.go, follower.go)
//   - Router: fan-out, per-shard timeouts and partial-result
//     degradation for the state round and set gather a cluster /matches
//     builds from, the owner fetch of a target's examples for
//     /substitutes, the watched summaries a shard answers /search with
//     from its own index, and the /substitutes and /search scatters kept
//     for replay (router.go)
//   - Watch / Checker: one summary long-poll per peer, whose outcome is
//     also the peer's health: a fan-out fails a peer whose last poll
//     failed without calling it (health.go)
//
// The serving layer mounts the intra-cluster API (/cluster/info, /sets,
// /substitutes, /summary, /search) and consults a Node for placement
// decisions; storage is sharded but every process carries the full
// simulation universe, so any shard can compare any candidate locally.
package cluster

import (
	"fmt"

	"dexa/internal/telemetry"
)

// Node roles.
const (
	RoleShard    = "shard"
	RoleFollower = "follower"
)

// Node is one process's view of the cluster: the shared membership, the
// placement ring, and this node's own identity. A shard node carries a
// Router (it reads the other shards for public queries) and a Feed (its
// store is a replication leader); a follower node carries a Follower
// tailing its leader and serves read-only.
type Node struct {
	Config Config
	Ring   *Ring
	// Self is this node's shard name (RoleShard) or instance name
	// (RoleFollower).
	Self string
	Role string

	Router   *Router
	Feed     *Feed
	Follower *Follower
	Checker  *Checker
	Metrics  *Metrics
}

// NewShardNode assembles a shard member: ring from the config, router
// over the full membership, and the checker whose Run starts the router's
// watch of every peer. The returned node still needs its Feed wired to
// the local store by the caller.
func NewShardNode(cfg Config, self string, reg *telemetry.Registry) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ShardURL(self) == "" {
		return nil, fmt.Errorf("cluster: self %q is not in the membership", self)
	}
	ring, err := cfg.Ring()
	if err != nil {
		return nil, err
	}
	met := NewMetrics(reg)
	rt := &Router{Config: cfg, Ring: ring, Metrics: met}
	return &Node{
		Config:  cfg,
		Ring:    ring,
		Self:    self,
		Role:    RoleShard,
		Router:  rt,
		Checker: &Checker{Router: rt, Self: self},
		Metrics: met,
	}, nil
}

// Owns reports whether this node's shard is the placement owner of the
// module. Followers own nothing — they serve whatever they replicated.
func (n *Node) Owns(moduleID string) bool {
	return n.Role == RoleShard && n.Ring.Owner(moduleID) == n.Self
}

// OwnerURL returns the base URL of the shard owning the module.
func (n *Node) OwnerURL(moduleID string) string {
	return n.Config.ShardURL(n.Ring.Owner(moduleID))
}
