// Package route is qosrmad's consistent-hash routing tier: it partitions
// the decide key space across replicated backend groups so a fleet of
// decision servers behaves like one big one. Every query's canonical
// co-phase key hashes onto a ring of virtual nodes; the owning group is
// stable under group addition/removal (only ~1/N of keys move when a
// group joins — the property that keeps backend decision LRUs warm
// through fleet resizes), and each group may list several replica
// addresses that serve the same key range interchangeably.
//
// The package has two layers: Ring (pure placement — bytes in, group
// out) and Proxy (an http.Handler speaking the service's own JSON API
// that splits decide batches by owning group, forwards the sub-batches
// concurrently with per-group replica rotation and failover, and merges
// the answers back into request order). cmd/qosrmad -route wraps Proxy;
// cmd/loadgen's -addrs flag drives the backends directly with the same
// placement assumption.
package route

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Backend is one replicated group of decision servers: every address
// serves the same slice of the key space (same database, same
// configuration), so the proxy may use any replica and fail over to the
// others.
type Backend struct {
	// Name identifies the group on the ring; the virtual-node positions
	// are derived from it, so renaming a group moves its keys while
	// adding/removing replicas does not.
	Name string
	// Addrs are the replica HTTP addresses (host:port).
	Addrs []string
	// WireAddrs, when non-empty, is parallel to Addrs and holds each
	// replica's binary wire-protocol address ("" = replica exposes no
	// wire listener). Only consulted by the wire proxy.
	WireAddrs []string
}

// point is one virtual node: a position on the ring owned by a group.
type point struct {
	h   uint64
	idx int // index into Ring.backends
}

// Ring places keys onto backend groups by consistent hashing with
// virtual nodes. Immutable after New; safe for concurrent use.
type Ring struct {
	backends []Backend
	points   []point
}

// DefaultVnodes is the per-group virtual-node count used when the caller
// passes 0: enough that group loads balance within a few percent, small
// enough that ring construction and lookup stay trivial.
const DefaultVnodes = 128

// New builds a ring over the groups. vnodes ≤ 0 selects DefaultVnodes.
func New(backends []Backend, vnodes int) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("route: no backend groups")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(backends))
	r := &Ring{
		backends: append([]Backend(nil), backends...),
		points:   make([]point, 0, vnodes*len(backends)),
	}
	for i, b := range backends {
		if b.Name == "" {
			return nil, fmt.Errorf("route: group %d has no name", i)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("route: duplicate group name %q", b.Name)
		}
		seen[b.Name] = true
		if len(b.Addrs) == 0 {
			return nil, fmt.Errorf("route: group %q has no replica addresses", b.Name)
		}
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{h: Hash([]byte(b.Name + "#" + strconv.Itoa(v))), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].h < r.points[b].h })
	return r, nil
}

// Backends returns the groups in construction order.
func (r *Ring) Backends() []Backend { return r.backends }

// Pick returns the index of the group owning key (the first virtual node
// clockwise of the key's hash).
func (r *Ring) Pick(key []byte) int { return r.PickHash(Hash(key)) }

// PickHash is Pick for a pre-computed key hash.
func (r *Ring) PickHash(h uint64) int { return r.points[r.owner(h)].idx }

// PickAvailableHash walks clockwise from the key's owning virtual node to
// the first group avail reports true for. With every group available it
// equals PickHash, so placement is unchanged in the healthy fleet; when a
// group's replicas are all down its keys spill to the next group on the
// ring (every backend serves the same database — a spill answers
// correctly, just from a colder cache) and return the moment the owner
// heals. If no group is available the true owner is returned and the
// forward fails there.
func (r *Ring) PickAvailableHash(h uint64, avail func(group int) bool) int {
	i := r.owner(h)
	for k := 0; k < len(r.points); k++ {
		idx := r.points[(i+k)%len(r.points)].idx
		if avail(idx) {
			return idx
		}
	}
	return r.points[i].idx
}

// owner returns the index of the first virtual node clockwise of h (the
// ring is circular: past the last point it wraps to the first).
func (r *Ring) owner(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Hash is the routing hash: 64-bit FNV-1a, the same function the service
// uses to spread canonical keys over its internal shards.
func Hash(key []byte) uint64 { return hashOn(14695981039346656037, key) }

// hashOn continues FNV-1a state h over b: hashOn(Hash(a), b) == Hash(a+b).
//
//qosrma:noalloc
func hashOn(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// appendKeyPrefix and appendKeyApp are the one definition of the
// canonical routing key: a configuration prefix, "scheme/model/slack"
// (the scheme lowercased; the per-core slack vector when given, else the
// uniform slack unless it is zero), then one "|name:phase" part per app.
// The proxies hash a prefix once per configuration and continue the hash
// over each app with hashKeyApp, so they never render a whole key.
func appendKeyPrefix(dst []byte, scheme string, model int, slack float64, slacks []float64) []byte {
	dst = append(dst, strings.ToLower(scheme)...)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(model), 10)
	dst = append(dst, '/')
	switch {
	case len(slacks) > 0:
		for i, v := range slacks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
	case slack != 0:
		dst = strconv.AppendFloat(dst, slack, 'g', -1, 64)
	}
	return dst
}

// appendKeyApp appends one app's key part, "|name:phase".
func appendKeyApp(dst []byte, name string, phase int) []byte {
	dst = append(dst, '|')
	dst = append(dst, name...)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, int64(phase), 10)
}

// hashKeyApp continues a key hash over one app's part, rendered on the
// stack (a name longer than the buffer allocates).
//
//qosrma:noalloc
func hashKeyApp(h uint64, name string, phase int) uint64 {
	var part [64]byte
	return hashOn(h, appendKeyApp(part[:0], name, phase))
}

// ParseGroups parses the -route flag syntax: groups separated by ';',
// replica addresses within a group by ','. Each replica is either an
// HTTP address or "httpaddr|wireaddr" when the backend also exposes the
// binary wire listener (the wire proxy only uses replicas that declare
// one). Groups are named g0, g1, ... in order (names derive ring
// positions, so the flag order is part of the fleet's placement
// contract).
//
//	"10.0.0.1:7743,10.0.0.2:7743;10.0.1.1:7743|10.0.1.1:7744"
//	→ g0{10.0.0.1:7743 10.0.0.2:7743}, g1{10.0.1.1:7743 wire 10.0.1.1:7744}
func ParseGroups(spec string) ([]Backend, error) {
	var groups []Backend
	for _, g := range strings.Split(spec, ";") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		var addrs, wireAddrs []string
		anyWire := false
		for _, a := range strings.Split(g, ",") {
			if a = strings.TrimSpace(a); a == "" {
				continue
			}
			http, wire, found := strings.Cut(a, "|")
			http, wire = strings.TrimSpace(http), strings.TrimSpace(wire)
			if http == "" {
				return nil, fmt.Errorf("route: replica %q has no HTTP address", a)
			}
			if found && wire == "" {
				return nil, fmt.Errorf("route: replica %q declares an empty wire address", a)
			}
			addrs = append(addrs, http)
			wireAddrs = append(wireAddrs, wire)
			anyWire = anyWire || wire != ""
		}
		if len(addrs) == 0 {
			continue
		}
		b := Backend{Name: "g" + strconv.Itoa(len(groups)), Addrs: addrs}
		if anyWire {
			b.WireAddrs = wireAddrs
		}
		groups = append(groups, b)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("route: %q names no backend groups", spec)
	}
	return groups, nil
}
