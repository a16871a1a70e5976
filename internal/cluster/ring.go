// Package cluster turns a set of easybod processes into one fault-tolerant
// session service. Every session lives on exactly one node — its owner,
// chosen by consistent hashing over a versioned membership table — but any
// node accepts any request and transparently proxies it to the owner, so
// clients need no routing knowledge. Ownership moves in two ways, both
// fenced by a durable epoch (see internal/serve handoff hooks) and both
// over the one store every node opens: a planned handoff fences the session
// to the new owner, which adopts it from the store, and node loss is healed
// by the surviving next-in-ring node adopting the session from the store
// and replaying its write-ahead log.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Member is one node of the cluster membership.
type Member struct {
	ID  string `json:"id"`  // stable node name (fence records carry it)
	URL string `json:"url"` // base URL peers reach the node at
}

// Table is a versioned membership table. Placement is a pure function of
// (table, session id): every node holding the same table version routes a
// session to the same owner, and a version bump (node added or removed by
// an operator) moves only the sessions whose owner changed.
type Table struct {
	Version uint64   `json:"version"`
	Members []Member `json:"members"`
}

// normalize sorts members by id and rejects duplicates and empties.
func (t *Table) normalize() error {
	if len(t.Members) == 0 {
		return fmt.Errorf("cluster: empty membership table")
	}
	sort.Slice(t.Members, func(i, j int) bool { return t.Members[i].ID < t.Members[j].ID })
	for i, m := range t.Members {
		if m.ID == "" {
			return fmt.Errorf("cluster: member %d has no id", i)
		}
		if i > 0 && t.Members[i-1].ID == m.ID {
			return fmt.Errorf("cluster: duplicate member id %q", m.ID)
		}
	}
	return nil
}

// virtualNodes is the number of ring points per member. 64 keeps the
// per-node load spread within a few percent for small clusters while the
// ring stays a few KiB.
const virtualNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring places session ids on members by consistent hashing: each member
// projects virtualNodes points onto a 64-bit circle, and an id belongs to
// the first point clockwise from its own hash. Identical point hashes (a
// birthday collision between two members' virtual nodes) are broken by
// rendezvous hashing — highest hash(member, id) wins — so placement stays
// deterministic and identical on every node, never dependent on insertion
// order. Lookup is a binary search; the ring is immutable once built.
type Ring struct {
	table   Table
	members []Member
	points  []ringPoint
}

// NewRing builds the ring for a membership table.
func NewRing(t Table) (*Ring, error) {
	if err := t.normalize(); err != nil {
		return nil, err
	}
	r := &Ring{table: t, members: t.Members}
	r.points = make([]ringPoint, 0, len(t.Members)*virtualNodes)
	for mi, m := range t.Members {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m.ID, v)),
				member: mi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Stable order under collisions; the rendezvous tie-break in owner()
		// decides who actually wins the arc.
		return r.members[a.member].ID < r.members[b.member].ID
	})
	return r, nil
}

// Table returns the membership the ring was built from (members sorted).
func (r *Ring) Table() Table { return r.table }

// Member returns the member with the given id.
func (r *Ring) Member(id string) (Member, bool) {
	for _, m := range r.members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// Owner returns the member that owns a session id.
func (r *Ring) Owner(id string) Member {
	m, _ := r.owner(id, nil)
	return m
}

// OwnerExcluding returns the owner after skipping excluded members —
// failover routing: the ring with the dead node removed, computed without
// rebuilding. ok is false when every member is excluded.
func (r *Ring) OwnerExcluding(id string, excluded map[string]bool) (Member, bool) {
	return r.owner(id, excluded)
}

func (r *Ring) owner(id string, excluded map[string]bool) (Member, bool) {
	h := hash64(id)
	n := len(r.points)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for off := 0; off < n; off++ {
		i := (start + off) % n
		p := r.points[i]
		m := r.members[p.member]
		if excluded[m.ID] {
			continue
		}
		// Collision arc: several virtual nodes may share this exact hash;
		// rendezvous-hash the candidates so the winner is a function of
		// (members, id) alone.
		best, bestScore := m, rendezvous(m.ID, id)
		for j := i + 1; j < n && r.points[j].hash == p.hash; j++ {
			c := r.members[r.points[j].member]
			if excluded[c.ID] {
				continue
			}
			if s := rendezvous(c.ID, id); s > bestScore {
				best, bestScore = c, s
			}
		}
		return best, true
	}
	return Member{}, false
}

// hash64 is the ring's point hash: FNV-1a (stable across processes and
// architectures) pushed through a 64-bit avalanche finalizer. Raw FNV-1a
// ends on a multiply, so strings sharing a prefix and differing only in
// trailing digits — exactly what session ids look like — hash within
// ~2^48 of each other while ring arcs are ~2^56 wide, and whole runs of
// ids pile onto one arc. The finalizer (MurmurHash3 fmix64) spreads
// those low-bit differences across all 64 bits.
func hash64(s string) uint64 {
	h := fnv.New64a()
	//easybolint:ok errdrop hash.Hash Write never fails by contract
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rendezvous scores a (member, key) pair for collision tie-breaks.
func rendezvous(member, key string) uint64 {
	return hash64(member + "\x00" + key)
}
