// Package cluster scales the write path horizontally: a consistent-hash
// ring partitions the tuple-key space across independent shard groups
// (each a durable primary with optional hot standbys, see
// internal/incremental), and a Router splits every incoming ChangeSet
// by owning shard, fans the sub-batches out in parallel, and merges the
// per-shard violation deltas into one response. Each shard group keeps
// its own WAL, fsync cadence and group-commit window; failover inside
// a group is the fenced promotion of internal/incremental, and the
// router re-points at the promoted standby without re-seeding anything.
//
// The partition is by tuple key, so the cluster is exactly N
// independent monitors over a key partition — the data-partitioned
// form of the paper's detection queries. Constant violations are local
// to a tuple and therefore exact. Variable violations are detected
// within each shard: a conflicting group whose tuples land on one
// shard is reported exactly, while an X-group scattered across shards
// is checked per shard only — the trade every hash-partitioned
// detector makes. Callers that need cross-shard grouping route by
// group key instead (a future routing mode); the oracle property test
// pins the per-shard semantics.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over shard-group names. Each member
// contributes vnodes points (hashes of "name#i"); a key is owned by the
// member whose point follows the key's hash clockwise. Adding or
// removing one member moves only the keys in the arcs its points
// covered — about 1/N of the space — which is what lets a cluster grow
// without reshuffling every shard (the ring test pins both properties).
//
// Ring is not safe for concurrent mutation; the Router guards its ring
// with a lock and callers that share a Ring do the same. Reads
// (Owner) are safe concurrently with each other.
type Ring struct {
	vnodes  int
	members map[string]bool
	// points is the sorted vnode list: hashes with their owners,
	// rebuilt on every membership change. Ties (astronomically rare
	// with 64-bit hashes) break by owner name so every rebuild is
	// deterministic.
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	owner string
}

// DefaultVNodes is the per-member vnode count when NewRing is given 0:
// enough points that the ring test's load-balance bound (each member
// within 2× of the mean over random keys) holds comfortably.
const DefaultVNodes = 64

// NewRing builds a ring with the given vnode count per member (0 means
// DefaultVNodes) and initial members.
func NewRing(vnodes int, members ...string) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, members: make(map[string]bool, len(members))}
	for _, m := range members {
		if err := r.Add(m); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add inserts a member; duplicate or empty names error.
func (r *Ring) Add(name string) error {
	if name == "" {
		return fmt.Errorf("cluster: empty ring member name")
	}
	if r.members[name] {
		return fmt.Errorf("cluster: ring member %q already present", name)
	}
	r.members[name] = true
	r.rebuild()
	return nil
}

// Remove deletes a member; unknown names error.
func (r *Ring) Remove(name string) error {
	if !r.members[name] {
		return fmt.Errorf("cluster: ring member %q not present", name)
	}
	delete(r.members, name)
	r.rebuild()
	return nil
}

// Members returns the member names in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// rebuild recomputes the sorted point list from the member set.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for m := range r.members {
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(m, i), owner: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].owner < r.points[j].owner
	})
}

// Owner returns the member owning the given tuple key. Panics on an
// empty ring — routing against zero shards is a construction bug, not
// a runtime condition.
func (r *Ring) Owner(key int64) string {
	if len(r.points) == 0 {
		panic("cluster: Owner on empty ring")
	}
	h := mix64(uint64(key))
	// First point at or after h, wrapping to the first point.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].owner
}

// vnodeHash places one virtual node: FNV-1a over "name#i".
func vnodeHash(name string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", name, i)
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer: tuple keys are small sequential
// integers, and without a strong bit mix they would all land in one
// arc of the ring.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
