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

	"repro/internal/arena"
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
// campus. Every address is a pure function of its (label, index) inputs.
// A caller resolves a label once per placement (CampusServers,
// CampusDevices, …) and asks the returned Hosts for addresses by index.
// The Allocator and its Hosts are not safe for concurrent use.
type Allocator struct {
	plan *Plan
	strs arena.Strings // every rendered address
}

type hostKind uint8

const (
	campusServer hostKind = iota
	healthServer
	campusDevice
	campusSubnet
	externalSubnet
)

// hashPrefix is each placement's prefix of the hashed "prefix label/index"
// key.
var hashPrefix = [...]string{
	campusServer:   "srv/",
	healthServer:   "health/",
	campusDevice:   "dev/",
	campusSubnet:   "campus-sub/",
	externalSubnet: "ext/",
}

// NewAllocator creates an allocator over the plan.
func NewAllocator(plan *Plan) *Allocator { return &Allocator{plan: plan} }

// Plan returns the underlying address plan.
func (a *Allocator) Plan() *Plan { return a.plan }

// Hosts is one label resolved for one placement: the label's part of
// every address hash is folded in once, and each address is rendered once
// into a dense slot by index, so a repeated request hashes and renders
// nothing. Addresses asked for with Once skip the slots: a population
// that never asks for an index twice has nothing to reuse.
type Hosts struct {
	a    *Allocator
	kind hostKind
	// seed is the hash of "prefix label/" (of "campus-sub/label" for
	// the campus-subnet placement, which hashes no index).
	seed uint64
	// at holds At's addresses by index; sub holds InSubnet's by host,
	// each with the subnet it was rendered for.
	at  []string
	sub []subnetSlot
}

type subnetSlot struct {
	subnet int
	addr   string
}

// maxSlots bounds an index that gets a slot; larger and negative indices
// are rendered on every request.
const maxSlots = 1 << 20

func (a *Allocator) resolve(kind hostKind, label string) *Hosts {
	h := &Hosts{a: a, kind: kind}
	k := append([]byte(hashPrefix[kind]), label...)
	if kind != campusSubnet {
		k = append(k, '/')
	}
	h.seed = ids.HashBytes64(k)
	return h
}

// CampusServers resolves a service label's university servers: server
// #idx is At(idx), the same address across runs.
func (a *Allocator) CampusServers(label string) *Hosts { return a.resolve(campusServer, label) }

// HealthServers resolves a service label's servers inside the health
// system.
func (a *Allocator) HealthServers(label string) *Hosts { return a.resolve(healthServer, label) }

// CampusDevices resolves a label's non-NAT internal devices (inbound
// connections see internal servers; some internal devices also appear as
// distinct clients to internal services — e.g. health-system equipment).
func (a *Allocator) CampusDevices(label string) *Hosts { return a.resolve(campusDevice, label) }

// CampusSubnetHosts resolves a label's controlled campus subnets:
// InSubnet places host #host into campus /24 #subnet (mod the /16's 256
// subnets) — used when an analysis needs controlled internal subnet
// spread (Table 6's client-presentation counting).
func (a *Allocator) CampusSubnetHosts(label string) *Hosts { return a.resolve(campusSubnet, label) }

// ExternalHosts resolves an entity label's external address space. At
// spreads host #idx over it; InSubnet places host #host into the
// entity's subnet #subnet, and distinct (label, subnet) pairs map to
// distinct /24s, which is what Table 6's spread quantiles count.
func (a *Allocator) ExternalHosts(label string) *Hosts { return a.resolve(externalSubnet, label) }

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

// hash is ids.HashString64 of "prefix label/idx".
func (h *Hosts) hash(idx int) uint64 {
	var buf [20]byte
	return ids.HashMore64(h.seed, strconv.AppendInt(buf[:0], int64(idx), 10))
}

// At returns address #idx: a server or device by index, or, resolved by
// ExternalHosts, host idx%200 of subnet idx/200.
func (h *Hosts) At(idx int) string {
	if uint(idx) >= maxSlots {
		return h.Once(idx)
	}
	if idx >= len(h.at) {
		h.at = append(h.at, make([]string, idx+1-len(h.at))...)
	}
	s := h.at[idx]
	if s == "" {
		s = h.Once(idx)
		h.at[idx] = s
	}
	return s
}

// Once is At without the slot, for an index asked for only once.
func (h *Hosts) Once(idx int) string {
	switch h.kind {
	case campusServer, campusDevice:
		return h.a.render(hostIn(h.a.plan.Campus, h.hash(idx)))
	case healthServer:
		return h.a.render(hostIn(h.a.plan.Health, h.hash(idx)))
	default:
		return h.OnceInSubnet(idx/200, idx%200)
	}
}

// render is addr.String(), cut from the Allocator's arena.
func (a *Allocator) render(addr netip.Addr) string {
	var b [len("255.255.255.255")]byte
	return a.strs.Cut(addr.AppendTo(b[:0]))
}

// InSubnet places host #host into subnet #subnet of an ExternalHosts or
// CampusSubnetHosts label. A host asked for in a different subnet than
// last time is rendered afresh.
func (h *Hosts) InSubnet(subnet, host int) string {
	if uint(host) >= maxSlots {
		return h.OnceInSubnet(subnet, host)
	}
	if host >= len(h.sub) {
		h.sub = append(h.sub, make([]subnetSlot, host+1-len(h.sub))...)
	}
	sl := &h.sub[host]
	if sl.addr == "" || sl.subnet != subnet {
		*sl = subnetSlot{subnet, h.OnceInSubnet(subnet, host)}
	}
	return sl.addr
}

// OnceInSubnet is InSubnet without the slot, for a (subnet, host) asked
// for only once.
func (h *Hosts) OnceInSubnet(subnet, host int) string {
	o4 := byte(host%253) + 1
	if h.kind == campusSubnet {
		base := h.a.plan.Campus.Addr().As4()
		o3 := byte((int(h.seed) + subnet*7) % 256)
		return h.a.render(netip.AddrFrom4([4]byte{base[0], base[1], o3, o4}))
	}
	hv := h.hash(subnet)
	// External space: avoid campus (128.143/16), health (172.25/16) and
	// reserved prefixes by constructing from hash bytes with the first
	// octet forced into public-looking ranges.
	o1 := byte(23 + (hv % 80)) // 23..102
	o2 := byte(hv >> 8)
	o3 := byte(hv >> 16)
	return h.a.render(netip.AddrFrom4([4]byte{o1, o2, o3, o4}))
}

// CampusClient returns the NAT'd address campus client #idx appears as
// for outbound connections.
func (a *Allocator) CampusClient(idx int) string {
	return a.plan.NATPool[idx%len(a.plan.NATPool)].String()
}
