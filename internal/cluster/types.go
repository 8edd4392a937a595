package cluster

import (
	"dexa/internal/dataexample"
	"dexa/internal/search"
)

// Wire payloads of the intra-cluster API (mounted by the serving layer
// under /api/cluster/*). Both sides of every scatter-gather call — the
// Router on the querying node and the handlers on the shards — share
// these types, so the shapes cannot drift apart.

// Info is GET /cluster/info: one node's identity and replication
// position, cheap enough to poll per scatter round.
type Info struct {
	Shard   string `json:"shard"`
	Role    string `json:"role"` // "shard" or "follower"
	Seq     uint64 `json:"seq"`
	Modules int    `json:"modules"` // stored annotations on this node
	// Follower-only: the leader being tailed and the observed lag.
	Leader    string `json:"leader,omitempty"`
	LeaderSeq uint64 `json:"leaderSeq,omitempty"`
	Lag       uint64 `json:"lag,omitempty"`
}

// StoredSet is one module's stored annotation as shipped between nodes.
type StoredSet struct {
	Hash     string          `json:"hash"`
	Version  uint64          `json:"version"`
	Examples dataexample.Set `json:"examples"`
}

// SetsPayload is GET /cluster/sets: every annotation this shard stores
// (its owned slice of the catalog), keyed by module ID.
type SetsPayload struct {
	Shard string               `json:"shard"`
	Seq   uint64               `json:"seq"`
	Sets  map[string]StoredSet `json:"sets"`
}

// SubstitutesRequest is POST /cluster/substitutes, Router.Substitutes'
// replay-only scatter: rank this shard's slice of the candidate set
// against the target's examples, which ride in the body, by invoking
// those candidates through the shard's own executors.
type SubstitutesRequest struct {
	Target     string          `json:"target"`
	Hash       string          `json:"hash"`
	Examples   dataexample.Set `json:"examples"`
	Candidates []string        `json:"candidates"`
}

// SubstituteEntry is one ranked candidate in cluster transit — the same
// fields the public /substitutes response carries.
type SubstituteEntry struct {
	ID       string  `json:"id"`
	Verdict  string  `json:"verdict"`
	Score    float64 `json:"score"`
	Compared int     `json:"compared"`
	Agreeing int     `json:"agreeing"`
}

// SkippedEntry is one uncomparable candidate and why.
type SkippedEntry struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

// SubstitutesReply is the shard's slice of a replayed scatter's ranking.
type SubstitutesReply struct {
	Shard       string            `json:"shard"`
	Substitutes []SubstituteEntry `json:"substitutes"`
	Skipped     []SkippedEntry    `json:"skipped,omitempty"`
}

// Summary is GET /cluster/summary: one shard's search-index nonce and
// generation and, for every module it owns and indexes, the
// stored-annotation half of its document. Its Tag is the ETag, so a shard
// whose index has not moved answers a revalidation 304 and sends nothing,
// and a restarted shard, whose index has a new nonce, never does.
type Summary struct {
	Shard      string                   `json:"shard"`
	Nonce      string                   `json:"nonce"`
	Generation uint64                   `json:"generation"`
	Docs       map[string]search.Remote `json:"docs"`
}

// Tag names the index state a summary was read at (see search.Tag).
func (s *Summary) Tag() string { return search.Tag(s.Nonce, s.Generation) }

// SearchRequest is POST /cluster/search, in one of two modes. With
// Resolve set, the shard only maps the listed module IDs (behaves:
// anchors it owns) to their behavior-class fingerprints. Otherwise the
// shard runs Query against its full-catalog index — with behaves:
// anchors pre-resolved via Anchors, so every shard scores against the
// same class even for anchors whose example sets it does not store —
// and returns the hits for the modules it owns.
type SearchRequest struct {
	Query   string            `json:"query,omitempty"`
	Anchors map[string]string `json:"anchors,omitempty"`
	Resolve []string          `json:"resolve,omitempty"`
}

// SearchReply is the shard's slice of the ranking (or the resolved
// fingerprints in resolve mode). Hits reuse search.Hit so the scattered
// wire shape cannot drift from the single-node response shape.
type SearchReply struct {
	Shard        string            `json:"shard"`
	Generation   uint64            `json:"generation"`
	Hits         []search.Hit      `json:"hits,omitempty"`
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
}
