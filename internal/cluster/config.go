package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"strings"
)

// Config is the static cluster membership: the named shards, their base
// URLs, and the ring geometry. Every node of a cluster (and every
// client routing into it) loads the same file, so placement is agreed
// on without any coordination service.
//
// The JSON shape:
//
//	{
//	  "virtualNodes": 128,
//	  "shards": [
//	    {"name": "shard-a", "url": "http://127.0.0.1:8081"},
//	    {"name": "shard-b", "url": "http://127.0.0.1:8082"},
//	    {"name": "shard-c", "url": "http://127.0.0.1:8083"}
//	  ]
//	}
type Config struct {
	// VirtualNodes is the per-shard point count on the hash ring
	// (0 selects DefaultVirtualNodes; at most MaxVirtualNodes).
	VirtualNodes int           `json:"virtualNodes,omitempty"`
	Shards       []ShardConfig `json:"shards"`
}

// ShardConfig names one shard and its base URL (scheme://host:port, no
// trailing slash; the API prefix is appended by callers).
type ShardConfig struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// MaxVirtualNodes caps Config.VirtualNodes. A ring holds shards ×
// virtual nodes points, built on every config load, so an unbounded count
// lets one config line exhaust memory; 4096 is 32× the default.
const MaxVirtualNodes = 4096

// LoadConfig reads and validates a cluster config file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("cluster: reading config: %w", err)
	}
	return ParseConfig(data)
}

// ParseConfig decodes and validates a cluster config document: one JSON
// object, nothing but white space after it.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("cluster: decoding config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("cluster: decoding config: data after the config object")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the membership for structural problems: no shards,
// duplicate names or URLs, unparseable URLs, a virtual-node count below 0
// or above MaxVirtualNodes.
func (c Config) Validate() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("cluster: config has no shards")
	}
	if c.VirtualNodes < 0 || c.VirtualNodes > MaxVirtualNodes {
		return fmt.Errorf("cluster: virtualNodes %d outside 0..%d", c.VirtualNodes, MaxVirtualNodes)
	}
	names := make(map[string]bool, len(c.Shards))
	urls := make(map[string]bool, len(c.Shards))
	for _, sh := range c.Shards {
		if sh.Name == "" {
			return fmt.Errorf("cluster: shard with empty name")
		}
		if names[sh.Name] {
			return fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		names[sh.Name] = true
		u, err := url.Parse(sh.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("cluster: shard %q has invalid url %q", sh.Name, sh.URL)
		}
		base := strings.TrimSuffix(sh.URL, "/")
		if urls[base] {
			return fmt.Errorf("cluster: duplicate shard url %q", sh.URL)
		}
		urls[base] = true
	}
	return nil
}

// Ring builds the placement ring the config describes.
func (c Config) Ring() (*Ring, error) {
	names := make([]string, len(c.Shards))
	for i, sh := range c.Shards {
		names[i] = sh.Name
	}
	return NewRing(names, c.VirtualNodes)
}

// ShardURL returns the base URL of the named shard ("" when absent).
func (c Config) ShardURL(name string) string {
	for _, sh := range c.Shards {
		if sh.Name == name {
			return strings.TrimSuffix(sh.URL, "/")
		}
	}
	return ""
}
