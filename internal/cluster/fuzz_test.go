package cluster

import (
	"encoding/json"
	"testing"
)

// FuzzParseConfig checks that no config document panics the parser or
// the ring build, and that an accepted one is a single JSON value whose
// virtual-node count lies in 0..MaxVirtualNodes and whose ring holds
// exactly shards × virtual nodes points (at most shards ×
// MaxVirtualNodes), placing every module on a member shard.
func FuzzParseConfig(f *testing.F) {
	for _, s := range []string{
		`{"virtualNodes": 32, "shards": [{"name": "a", "url": "http://127.0.0.1:1"}, {"name": "b", "url": "http://127.0.0.1:2"}]}`,
		`{"shards": [{"name": "a", "url": "http://x"}]}`,
		`{"shards": []}`,
		`{"shards": [{"name": "a", "url": "no-scheme"}]}`,
		`{"shards": [{"name": "a", "url": "http://x"}], "bogus": 1}`,
		// Accepted before virtualNodes was bounded: a 6e9-point ring
		// allocation, and a negative count silently meaning the default.
		`{"virtualNodes": 2000000000, "shards": [{"name": "a", "url": "http://a"}, {"name": "b", "url": "http://b"}, {"name": "c", "url": "http://c"}]}`,
		`{"virtualNodes": -1, "shards": [{"name": "a", "url": "http://x"}]}`,
		// Accepted before trailing data was refused.
		`{"shards": [{"name": "a", "url": "http://x"}]} {"shards": []}`,
		`{"shards": [{"name": "a", "url": "http://x"}]}garbage`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a document that is not one JSON value: %q", data)
		}
		if cfg.VirtualNodes < 0 || cfg.VirtualNodes > MaxVirtualNodes {
			t.Fatalf("accepted virtualNodes %d outside 0..%d", cfg.VirtualNodes, MaxVirtualNodes)
		}
		r, err := cfg.Ring()
		if err != nil {
			t.Fatalf("accepted config builds no ring: %v", err)
		}
		vnodes := cfg.VirtualNodes
		if vnodes == 0 {
			vnodes = DefaultVirtualNodes
		}
		if want := len(cfg.Shards) * vnodes; len(r.points) != want || want > len(cfg.Shards)*MaxVirtualNodes {
			t.Fatalf("ring holds %d points for %d shards × %d virtual nodes", len(r.points), len(cfg.Shards), vnodes)
		}
		if owner := r.Owner("module"); cfg.ShardURL(owner) == "" {
			t.Fatalf("ring placed a module on %q, not a member", owner)
		}
	})
}
