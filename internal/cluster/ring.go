package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// The consistent-hash ring places every module ID on exactly one shard.
// Each shard contributes a fixed number of virtual nodes — points on a
// 64-bit hash circle derived from "<shard>#<i>" — and a module belongs
// to the shard owning the first point at or clockwise of the module's
// own hash. Placement depends only on the membership list and the
// virtual-node count, never on process state or query order, so every
// node of a cluster (and every client holding the same config) computes
// the same owner for the same ID, and adding or removing one shard moves
// only the keys adjacent to its points.

// DefaultVirtualNodes is the per-shard point count when the config does
// not say otherwise: enough to keep the spread within a few percent of
// even at small shard counts, cheap enough to rebuild on any load.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over named shards.
type Ring struct {
	points []ringPoint // sorted by hash
	shards []string    // sorted member names
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds the ring from the shard names with vnodes virtual nodes
// per shard (<= 0 selects DefaultVirtualNodes). Shard names must be
// non-empty and unique.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{
		points: make([]ringPoint, 0, len(shards)*vnodes),
		shards: append([]string(nil), shards...),
	}
	sort.Strings(r.shards)
	for _, name := range r.shards {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty shard name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", name)
		}
		seen[name] = true
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(fmt.Sprintf("%s#%d", name, i)),
				shard: name,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit collision between two shards' points is vanishingly
		// rare but must still break deterministically.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// ringHash is the placement hash: FNV-64a finished with the splitmix64
// mixer. Raw FNV keeps similar inputs ("shard#1", "shard#2", …) close
// together on the circle, which collapses the spread; the finalizer
// diffuses them. Pure arithmetic on fixed constants, so placement is
// stable across processes and platforms.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the shard a module ID is placed on.
func (r *Ring) Owner(moduleID string) string {
	h := ringHash(moduleID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the last point
	}
	return r.points[i].shard
}
