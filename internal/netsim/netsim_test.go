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
	if a.CampusServer("vpn", 0) != a.CampusServer("vpn", 0) {
		t.Fatal("CampusServer not deterministic")
	}
	if a.CampusServer("vpn", 0) == a.CampusServer("vpn", 1) {
		t.Fatal("distinct indices should differ")
	}
	if a.ExternalHost("rapid7", 3) != a.ExternalHost("rapid7", 3) {
		t.Fatal("ExternalHost not deterministic")
	}
}

func TestAllocatorPlacement(t *testing.T) {
	a := NewAllocator(DefaultPlan())
	p := a.Plan()
	for i := 0; i < 50; i++ {
		if !p.IsInternal(a.CampusServer("web", i)) {
			t.Fatalf("campus server %d not internal", i)
		}
		if !p.IsHealth(a.HealthServer("epic", i)) {
			t.Fatalf("health server %d not in health prefix", i)
		}
		if !p.IsInternal(a.CampusClient(i)) {
			t.Fatalf("NAT client %d not internal", i)
		}
		if !p.IsInternal(a.CampusDevice("lab", i)) {
			t.Fatalf("campus device %d not internal", i)
		}
		if p.IsInternal(a.ExternalHost("aws", i)) {
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
	a := NewAllocator(DefaultPlan())
	// Hosts within the same (label, subnet) share a /24.
	s1 := ids.SubnetOfString(a.ExternalHostInSubnet("globus", 0, 1))
	s2 := ids.SubnetOfString(a.ExternalHostInSubnet("globus", 0, 2))
	if s1 != s2 {
		t.Fatal("same subnet index must share a /24")
	}
	// Distinct subnet indices land in distinct /24s (with overwhelming
	// probability for small counts; verify a concrete set).
	subnets := map[ids.SubnetKey]bool{}
	for i := 0; i < 40; i++ {
		subnets[ids.SubnetOfString(a.ExternalHostInSubnet("globus", i, 0))] = true
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
		ext := a.ExternalHost(label, int(idx))
		srv := a.CampusServer(label, int(idx))
		return !a.Plan().IsInternal(ext) && a.Plan().IsInternal(srv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorMatchesFormula holds the Allocator — keys hashed from an
// appended buffer, each address rendered once and then reused — to the
// formatted-key formulas it replaced, for first and repeated requests.
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
	got := func(kind int, label string, x, y int) string {
		switch kind {
		case 0:
			return a.CampusServer(label, x)
		case 1:
			return a.HealthServer(label, x)
		case 2:
			return a.CampusDevice(label, x)
		case 3:
			return a.CampusHostInSubnet(label, x, y)
		default:
			return a.ExternalHostInSubnet(label, x, y)
		}
	}
	rng := ids.NewRNG(11)
	labels := []string{"", "vpn", "nm-out-public/cli", "crossshared/srv17", "é/x"}
	for i := 0; i < 20000; i++ {
		kind, label := rng.Intn(5), ids.Pick(rng, labels)
		x, y := rng.Intn(400)-50, rng.Intn(400)-50
		if g, w := got(kind, label, x, y), ref(kind, label, x, y); g != w {
			t.Fatalf("kind %d (%q, %d, %d) = %s, want %s", kind, label, x, y, g, w)
		}
	}
}
