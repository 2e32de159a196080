package netsim

import (
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestDirectionOf(t *testing.T) {
	p := DefaultPlan()
	cases := []struct {
		orig, resp string
		want       Direction
	}{
		{"8.8.8.8", "128.143.1.1", Inbound},
		{"8.8.8.8", "172.25.3.4", Inbound}, // health is internal
		{"128.143.255.10", "52.1.2.3", Outbound},
		{"128.143.1.1", "172.25.1.1", Internal},
		{"8.8.8.8", "9.9.9.9", External},
		{"garbage", "128.143.1.1", Inbound},
		{"garbage", "also-garbage", External},
	}
	for _, c := range cases {
		if got := p.DirectionOf(c.orig, c.resp); got != c.want {
			t.Errorf("DirectionOf(%s,%s) = %v, want %v", c.orig, c.resp, got, c.want)
		}
	}
}

func TestIsHealth(t *testing.T) {
	p := DefaultPlan()
	if !p.IsHealth("172.25.0.5") || p.IsHealth("128.143.0.5") || p.IsHealth("nope") {
		t.Fatal("IsHealth wrong")
	}
}

func TestAllocatorDeterminism(t *testing.T) {
	a := NewAllocator(DefaultPlan())
	if a.CampusServers("vpn").At(0) != NewAllocator(DefaultPlan()).CampusServers("vpn").At(0) {
		t.Fatal("CampusServers not deterministic")
	}
	if vpn := a.CampusServers("vpn"); vpn.At(0) == vpn.At(1) {
		t.Fatal("distinct indices should differ")
	}
	if a.ExternalHosts("rapid7").At(3) != a.ExternalHosts("rapid7").Once(3) {
		t.Fatal("ExternalHosts not deterministic")
	}
}

func TestAllocatorPlacement(t *testing.T) {
	a := NewAllocator(DefaultPlan())
	p := a.Plan()
	web, epic, lab, aws := a.CampusServers("web"), a.HealthServers("epic"), a.CampusDevices("lab"), a.ExternalHosts("aws")
	for i := 0; i < 50; i++ {
		if !p.IsInternal(web.At(i)) {
			t.Fatalf("campus server %d not internal", i)
		}
		if !p.IsHealth(epic.At(i)) {
			t.Fatalf("health server %d not in health prefix", i)
		}
		if !p.IsInternal(a.CampusClient(i)) {
			t.Fatalf("NAT client %d not internal", i)
		}
		if !p.IsInternal(lab.At(i)) {
			t.Fatalf("campus device %d not internal", i)
		}
		if p.IsInternal(aws.At(i)) {
			t.Fatalf("external host %d inside campus", i)
		}
	}
}

func TestNATPoolSmall(t *testing.T) {
	a := NewAllocator(DefaultPlan())
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[a.CampusClient(i)] = true
	}
	if len(seen) != len(DefaultPlan().NATPool) {
		t.Fatalf("NAT pool size = %d, want %d", len(seen), len(DefaultPlan().NATPool))
	}
}

func TestSubnetSpreadControl(t *testing.T) {
	globus := NewAllocator(DefaultPlan()).ExternalHosts("globus")
	// Hosts within the same (label, subnet) share a /24.
	s1 := ids.SubnetOfString(globus.InSubnet(0, 1))
	s2 := ids.SubnetOfString(globus.InSubnet(0, 2))
	if s1 != s2 {
		t.Fatal("same subnet index must share a /24")
	}
	// Distinct subnet indices land in distinct /24s (with overwhelming
	// probability for small counts; verify a concrete set).
	subnets := map[ids.SubnetKey]bool{}
	for i := 0; i < 40; i++ {
		subnets[ids.SubnetOfString(globus.InSubnet(i, 0))] = true
	}
	if len(subnets) < 38 {
		t.Fatalf("expected ~40 distinct /24s, got %d", len(subnets))
	}
}

func TestDirectionStrings(t *testing.T) {
	if Inbound.String() != "inbound" || Outbound.String() != "outbound" ||
		Internal.String() != "internal" || External.String() != "external" {
		t.Fatal("direction strings wrong")
	}
}

// Property: allocator outputs always parse and classify as expected.
func TestAllocatorProperty(t *testing.T) {
	a := NewAllocator(DefaultPlan())
	f := func(label string, idx uint16) bool {
		ext := a.ExternalHosts(label).At(int(idx))
		srv := a.CampusServers(label).At(int(idx))
		return !a.Plan().IsInternal(ext) && a.Plan().IsInternal(srv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorMatchesFormula holds the Allocator — labels resolved once,
// index hashes continued from the label's, each address rendered once
// into a slot and then reused — to the formatted-key formulas it
// replaced, for first and repeated requests, with and without slots, on
// labels resolved once and resolved afresh.
func TestAllocatorMatchesFormula(t *testing.T) {
	p := DefaultPlan()
	ref := func(kind int, label string, x, y int) string {
		switch kind {
		case 0:
			return hostIn(p.Campus, ids.HashString64(fmt.Sprintf("srv/%s/%d", label, x))).String()
		case 1:
			return hostIn(p.Health, ids.HashString64(fmt.Sprintf("health/%s/%d", label, x))).String()
		case 2:
			return hostIn(p.Campus, ids.HashString64(fmt.Sprintf("dev/%s/%d", label, x))).String()
		case 3:
			h := ids.HashString64(fmt.Sprintf("campus-sub/%s", label))
			base := p.Campus.Addr().As4()
			return netip.AddrFrom4([4]byte{base[0], base[1], byte((int(h) + x*7) % 256), byte(y%253) + 1}).String()
		default:
			h := ids.HashString64(fmt.Sprintf("ext/%s/%d", label, x))
			return netip.AddrFrom4([4]byte{byte(23 + (h % 80)), byte(h >> 8), byte(h >> 16), byte(y%253) + 1}).String()
		}
	}
	a := NewAllocator(p)
	resolve := func(kind int, label string) *Hosts {
		return [...]func(string) *Hosts{a.CampusServers, a.HealthServers, a.CampusDevices, a.CampusSubnetHosts, a.ExternalHosts}[kind](label)
	}
	resolved := map[[2]any]*Hosts{}
	handle := func(kind int, label string) *Hosts {
		k := [2]any{kind, label}
		if h, ok := resolved[k]; ok {
			return h
		}
		h := resolve(kind, label)
		resolved[k] = h
		return h
	}
	got := func(h *Hosts, kind, x, y int, once bool) string {
		switch {
		case kind < 3 && once:
			return h.Once(x)
		case kind < 3:
			return h.At(x)
		case once:
			return h.OnceInSubnet(x, y)
		default:
			return h.InSubnet(x, y)
		}
	}
	rng := ids.NewRNG(11)
	labels := []string{"", "vpn", "nm-out-public/cli", "crossshared/srv17", "é/x"}
	for i := 0; i < 20000; i++ {
		kind, label := rng.Intn(5), ids.Pick(rng, labels)
		x, y := rng.Intn(400)-50, rng.Intn(400)-50
		w := ref(kind, label, x, y)
		if g := got(handle(kind, label), kind, x, y, rng.Bool(0.3)); g != w {
			t.Fatalf("kind %d (%q, %d, %d) = %s, want %s", kind, label, x, y, g, w)
		}
		if g := got(resolve(kind, label), kind, x, y, false); g != w {
			t.Fatalf("freshly resolved kind %d (%q, %d, %d) = %s, want %s", kind, label, x, y, g, w)
		}
		// ExternalHosts.At(idx) is host idx%200 of subnet idx/200.
		if kind == 4 {
			if g, w := handle(4, label).At(x), ref(4, label, x/200, x%200); g != w {
				t.Fatalf("ExternalHosts(%q).At(%d) = %s, want %s", label, x, g, w)
			}
		}
	}
}
