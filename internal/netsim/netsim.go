// Package netsim models the campus network's address plan: which prefixes
// are inside the university (including the health system), how NAT pools
// map many clients onto few addresses, and how a border tap decides
// whether a connection is inbound or outbound (§3.2's internal/external
// labeling, §4's inbound/outbound split).
//
// Address allocation is deterministic: the same (label, index) always
// yields the same address, so workload generation is reproducible and
// Table 6's subnet-spread analysis sees stable /24 groupings.
package netsim

import (
	"net/netip"
	"strconv"

	"repro/internal/ids"
)

// Direction classifies a connection relative to the border.
type Direction int

const (
	// Inbound: external client to a university-hosted server.
	Inbound Direction = iota
	// Outbound: university client to an external server.
	Outbound
	// Internal and External connections (both endpoints on one side)
	// would not cross the border tap; they appear only as error cases.
	Internal
	External
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Inbound:
		return "inbound"
	case Outbound:
		return "outbound"
	case Internal:
		return "internal"
	default:
		return "external"
	}
}

// Plan is the campus address plan.
type Plan struct {
	// University prefixes (the main campus range and the health system's).
	Campus netip.Prefix
	Health netip.Prefix
	// NATPool is the small set of addresses campus clients appear as for
	// outbound traffic ("clients … are extensively using NAT", §4).
	NATPool []netip.Addr
}

// DefaultPlan mirrors a large-university allocation: a /16 for campus, a
// /16 for the health system, and an 8-address NAT pool.
func DefaultPlan() *Plan {
	p := &Plan{
		Campus: netip.MustParsePrefix("128.143.0.0/16"),
		Health: netip.MustParsePrefix("172.25.0.0/16"),
	}
	for i := 0; i < 8; i++ {
		p.NATPool = append(p.NATPool, netip.AddrFrom4([4]byte{128, 143, 255, byte(10 + i)}))
	}
	return p
}

// IsInternal reports whether addr is inside the university (campus or
// health). Unparsable addresses are treated as external, as a border
// monitor would.
func (p *Plan) IsInternal(addr string) bool {
	a, err := netip.ParseAddr(addr)
	if err != nil {
		return false
	}
	return p.Campus.Contains(a) || p.Health.Contains(a)
}

// IsHealth reports whether addr belongs to the health system.
func (p *Plan) IsHealth(addr string) bool {
	a, err := netip.ParseAddr(addr)
	if err != nil {
		return false
	}
	return p.Health.Contains(a)
}

// DirectionOf classifies a connection by its endpoints (originator =
// client, responder = server).
func (p *Plan) DirectionOf(origIP, respIP string) Direction {
	oi, ri := p.IsInternal(origIP), p.IsInternal(respIP)
	switch {
	case !oi && ri:
		return Inbound
	case oi && !ri:
		return Outbound
	case oi && ri:
		return Internal
	default:
		return External
	}
}

// Allocator hands out deterministic addresses inside and outside the
// campus. Every address is a pure function of its (label, index) inputs;
// the Allocator renders each one once and hands the same string back on
// every later request, so it is not safe for concurrent use.
type Allocator struct {
	plan  *Plan
	hosts map[hostKey]string
	key   []byte // scratch for the hashed "kind/label/index" keys
}

// hostKey names one rendered address: the method that placed it, its
// label and its one or two indices.
type hostKey struct {
	kind  hostKind
	label string
	a, b  int
}

type hostKind uint8

const (
	campusServer hostKind = iota
	healthServer
	campusDevice
	campusSubnet
	externalSubnet
)

// NewAllocator creates an allocator over the plan.
func NewAllocator(plan *Plan) *Allocator {
	return &Allocator{plan: plan, hosts: make(map[hostKey]string)}
}

// Plan returns the underlying address plan.
func (a *Allocator) Plan() *Plan { return a.plan }

// hostIn maps a 16-bit value into prefix's host space, avoiding .0/.255.
func hostIn(prefix netip.Prefix, v uint64) netip.Addr {
	base := prefix.Addr().As4()
	b3 := byte(v >> 8)
	b4 := byte(v)
	if b4 == 0 {
		b4 = 1
	}
	if b4 == 255 {
		b4 = 254
	}
	return netip.AddrFrom4([4]byte{base[0], base[1], b3, b4})
}

// hash is ids.HashString64(prefix + label + "/" + idx), built in the
// Allocator's scratch buffer.
func (a *Allocator) hash(prefix, label string, idx int) uint64 {
	a.key = strconv.AppendInt(append(append(append(a.key[:0], prefix...), label...), '/'), int64(idx), 10)
	return ids.HashBytes64(a.key)
}

// keep renders addr as the address named by k.
func (a *Allocator) keep(k hostKey, addr netip.Addr) string {
	s := addr.String()
	a.hosts[k] = s
	return s
}

// CampusServer returns the address of university server #idx for a
// service label; the same (label, idx) is stable across runs.
func (a *Allocator) CampusServer(label string, idx int) string {
	k := hostKey{kind: campusServer, label: label, a: idx}
	if s, ok := a.hosts[k]; ok {
		return s
	}
	return a.keep(k, hostIn(a.plan.Campus, a.hash("srv/", label, idx)))
}

// HealthServer returns an address inside the health system.
func (a *Allocator) HealthServer(label string, idx int) string {
	k := hostKey{kind: healthServer, label: label, a: idx}
	if s, ok := a.hosts[k]; ok {
		return s
	}
	return a.keep(k, hostIn(a.plan.Health, a.hash("health/", label, idx)))
}

// CampusClient returns the NAT'd address campus client #idx appears as
// for outbound connections.
func (a *Allocator) CampusClient(idx int) string {
	return a.plan.NATPool[idx%len(a.plan.NATPool)].String()
}

// CampusDevice returns a non-NAT internal device address (inbound
// connections see internal servers; some internal devices also appear as
// distinct clients to internal services — e.g. health-system equipment).
func (a *Allocator) CampusDevice(label string, idx int) string {
	k := hostKey{kind: campusDevice, label: label, a: idx}
	if s, ok := a.hosts[k]; ok {
		return s
	}
	return a.keep(k, hostIn(a.plan.Campus, a.hash("dev/", label, idx)))
}

// ExternalHost returns an external address for entity label, host #idx,
// spread over the entity's own address space.
func (a *Allocator) ExternalHost(label string, idx int) string {
	return a.ExternalHostInSubnet(label, idx/200, idx%200)
}

// CampusHostInSubnet places host #host into campus /24 #subnet (mod the
// /16's 256 subnets) — used when an analysis needs controlled internal
// subnet spread (Table 6's client-presentation counting).
func (a *Allocator) CampusHostInSubnet(label string, subnet, host int) string {
	k := hostKey{kind: campusSubnet, label: label, a: subnet, b: host}
	if s, ok := a.hosts[k]; ok {
		return s
	}
	a.key = append(append(a.key[:0], "campus-sub/"...), label...)
	h := ids.HashBytes64(a.key)
	base := a.plan.Campus.Addr().As4()
	o3 := byte((int(h) + subnet*7) % 256)
	o4 := byte(host%253) + 1
	return a.keep(k, netip.AddrFrom4([4]byte{base[0], base[1], o3, o4}))
}

// ExternalHostInSubnet places host #host of entity label into the
// entity's subnet #subnet. Distinct (label, subnet) pairs map to distinct
// /24s, which is what Table 6's spread quantiles count.
func (a *Allocator) ExternalHostInSubnet(label string, subnet, host int) string {
	k := hostKey{kind: externalSubnet, label: label, a: subnet, b: host}
	if s, ok := a.hosts[k]; ok {
		return s
	}
	h := a.hash("ext/", label, subnet)
	// External space: avoid campus (128.143/16), health (172.25/16) and
	// reserved prefixes by constructing from hash bytes with the first
	// octet forced into public-looking ranges.
	o1 := byte(23 + (h % 80)) // 23..102
	o2 := byte(h >> 8)
	o3 := byte(h >> 16)
	o4 := byte(host%253) + 1
	return a.keep(k, netip.AddrFrom4([4]byte{o1, o2, o3, o4}))
}
