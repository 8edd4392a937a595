package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicPlacement(t *testing.T) {
	a, err := NewRing([]string{"s1", "s2", "s3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Membership order must not matter.
	b, err := NewRing([]string{"s3", "s1", "s2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("module-%d", i)
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("placement of %s depends on membership order: %s vs %s", id, a.Owner(id), b.Owner(id))
		}
	}
}

func TestRingSpread(t *testing.T) {
	r, err := NewRing([]string{"s1", "s2", "s3"}, 0) // default vnodes
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("module-%d", i))]++
	}
	for shard, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("shard %s owns %.0f%% of keys — spread collapsed", shard, 100*frac)
		}
	}
	if len(counts) != 3 {
		t.Errorf("only %d shards received keys", len(counts))
	}
}

func TestRingMinimalMovement(t *testing.T) {
	three, _ := NewRing([]string{"s1", "s2", "s3"}, 128)
	four, _ := NewRing([]string{"s1", "s2", "s3", "s4"}, 128)
	const n = 3000
	moved := 0
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("module-%d", i)
		was, is := three.Owner(id), four.Owner(id)
		if was != is {
			if is != "s4" {
				t.Fatalf("adding s4 moved %s from %s to %s — keys may only move to the new shard", id, was, is)
			}
			moved++
		}
	}
	// Expect roughly 1/4 of keys to move; far more means the ring
	// reshuffles on membership change.
	if frac := float64(moved) / n; frac > 0.45 {
		t.Errorf("adding one shard moved %.0f%% of keys", 100*frac)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Error("duplicate shard accepted")
	}
	if _, err := NewRing([]string{""}, 8); err == nil {
		t.Error("empty shard name accepted")
	}
}

func TestConfigParse(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{
		"virtualNodes": 32,
		"shards": [
			{"name": "a", "url": "http://127.0.0.1:1"},
			{"name": "b", "url": "http://127.0.0.1:2"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ShardURL("b") != "http://127.0.0.1:2" {
		t.Errorf("ShardURL(b) = %q", cfg.ShardURL("b"))
	}
	if _, err := cfg.Ring(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{"shards": []}`,
		`{"shards": [{"name": "", "url": "http://x"}]}`,
		`{"shards": [{"name": "a", "url": "http://x"}, {"name": "a", "url": "http://y"}]}`,
		`{"shards": [{"name": "a", "url": "http://x"}, {"name": "b", "url": "http://x"}]}`,
		`{"shards": [{"name": "a", "url": "no-scheme"}]}`,
		`{"shards": [{"name": "a", "url": "http://x"}], "bogus": 1}`,
		`{"virtualNodes": -1, "shards": [{"name": "a", "url": "http://x"}]}`,
		`{"virtualNodes": 4097, "shards": [{"name": "a", "url": "http://x"}]}`,
		`{"shards": [{"name": "a", "url": "http://x"}]} trailing`,
	} {
		if _, err := ParseConfig([]byte(bad)); err == nil {
			t.Errorf("config accepted: %s", bad)
		}
	}
}
