package ids

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Fork("alpha")
	c2 := parent.Fork("alpha")
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("same-label forks must be identical")
	}
	c3 := parent.Fork("beta")
	c4 := parent.Fork("alpha")
	if c3.Uint64() == c4.Fork("x").Uint64() && c3.Uint64() == c4.Uint64() {
		t.Fatal("different labels should give different streams")
	}
	// Forking must not advance the parent.
	p2 := NewRNG(7)
	if parent.Uint64() != p2.Uint64() {
		t.Fatal("Fork advanced the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestWeightedPickDistribution(t *testing.T) {
	r := NewRNG(5)
	counts := [3]int{}
	w := []float64{1, 2, 7}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[WeightedPick(r, w)]++
	}
	// Expect roughly 10% / 20% / 70%.
	if got := float64(counts[2]) / n; got < 0.65 || got > 0.75 {
		t.Fatalf("heavy bucket share = %.3f, want ~0.70", got)
	}
	if got := float64(counts[0]) / n; got < 0.07 || got > 0.13 {
		t.Fatalf("light bucket share = %.3f, want ~0.10", got)
	}
}

func TestWeightedPickDegenerate(t *testing.T) {
	r := NewRNG(5)
	if WeightedPick(r, []float64{0, 0, 0}) != 0 {
		t.Fatal("all-zero weights should return 0")
	}
	if WeightedPick(r, []float64{-1, 0, 3}) != 2 {
		t.Fatal("only positive weight should win")
	}
}

func TestNewUIDShape(t *testing.T) {
	r := NewRNG(3)
	seen := map[UID]bool{}
	for i := 0; i < 5000; i++ {
		u := NewUID(r)
		if len(u) != 18 || u[0] != 'C' {
			t.Fatalf("bad UID shape: %q", u)
		}
		if seen[u] {
			t.Fatalf("UID collision at %d: %q", i, u)
		}
		seen[u] = true
	}
}

func TestFingerprintBytes(t *testing.T) {
	fp := FingerprintBytes([]byte("hello"))
	if !fp.Valid() {
		t.Fatalf("fingerprint not valid: %q", fp)
	}
	if fp != FingerprintBytes([]byte("hello")) {
		t.Fatal("fingerprint not deterministic")
	}
	if fp == FingerprintBytes([]byte("hellO")) {
		t.Fatal("distinct inputs collided")
	}
}

func TestFingerprintValidRejects(t *testing.T) {
	cases := []Fingerprint{"", "abc", Fingerprint(make([]byte, 64))}
	for _, c := range cases {
		if c.Valid() {
			t.Fatalf("Valid accepted %q", c)
		}
	}
	upper := FingerprintString("x")
	bad := Fingerprint("G" + string(upper[1:]))
	if bad.Valid() {
		t.Fatal("Valid accepted non-hex character")
	}
}

func TestFileIDStableAcrossObservations(t *testing.T) {
	fp := FingerprintString("certA")
	if NewFileID(fp) != NewFileID(fp) {
		t.Fatal("FileID must be a pure function of the fingerprint")
	}
	if NewFileID(fp)[0] != 'F' {
		t.Fatal("FileID must start with 'F'")
	}
}

func TestSubnetOf(t *testing.T) {
	a := netip.MustParseAddr("192.0.2.17")
	b := netip.MustParseAddr("192.0.2.200")
	c := netip.MustParseAddr("192.0.3.17")
	if SubnetOf(a) != SubnetOf(b) {
		t.Fatal("same /24 should share a key")
	}
	if SubnetOf(a) == SubnetOf(c) {
		t.Fatal("different /24s should differ")
	}
	v6a := netip.MustParseAddr("2001:db8::1")
	v6b := netip.MustParseAddr("2001:db8::ffff")
	if SubnetOf(v6a) != SubnetOf(v6b) {
		t.Fatal("same /64 should share a key")
	}
}

func TestSubnetOfStringInvalid(t *testing.T) {
	k1 := SubnetOfString("not-an-ip")
	k2 := SubnetOfString("not-an-ip")
	k3 := SubnetOfString("also-bad")
	if k1 != k2 {
		t.Fatal("invalid inputs must still group deterministically")
	}
	if k1 == k3 {
		t.Fatal("distinct invalid inputs should not collide")
	}
}

func TestPick(t *testing.T) {
	r := NewRNG(11)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never chose all elements: %v", seen)
	}
}

// Property: fingerprints are injective-in-practice and always valid.
func TestFingerprintProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		fa, fb := FingerprintBytes(a), FingerprintBytes(b)
		if !fa.Valid() || !fb.Valid() {
			return false
		}
		if string(a) != string(b) && fa == fb {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WeightedPick always returns an in-range index.
func TestWeightedPickProperty(t *testing.T) {
	r := NewRNG(123)
	f := func(ws []float64) bool {
		if len(ws) == 0 {
			return true
		}
		i := WeightedPick(r, ws)
		return i >= 0 && i < len(ws)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashString64Stable(t *testing.T) {
	if HashString64("zeek") != HashString64("zeek") {
		t.Fatal("hash not stable")
	}
	if HashString64("a") == HashString64("b") {
		t.Fatal("trivial collision")
	}
}

// TestHashMore64 holds a hash continued over a key's tail to the hash of
// the whole key.
func TestHashMore64(t *testing.T) {
	for _, k := range []string{"", "a", "ext/", "ext/nm-out-public/srv/", "é/x/"} {
		for _, tail := range []string{"", "0", "-17", "123456"} {
			if got, want := HashMore64(HashString64(k), []byte(tail)), HashString64(k+tail); got != want {
				t.Errorf("HashMore64(%q, %q) = %d, want %d", k, tail, got, want)
			}
		}
	}
}

// TestAppendFingerprint holds AppendFingerprint to FingerprintBytes.
func TestAppendFingerprint(t *testing.T) {
	for _, der := range []string{"", "hello", "serial\nissuer\n"} {
		if got, want := string(AppendFingerprint([]byte("x"), []byte(der))), "x"+string(FingerprintBytes([]byte(der))); got != want {
			t.Errorf("AppendFingerprint(%q) = %s, want %s", der, got, want)
		}
	}
}

// TestAppendUID holds AppendUID to NewUID over the same stream state.
func TestAppendUID(t *testing.T) {
	r1, r2 := NewRNG(9), NewRNG(9)
	buf := []byte("prefix")
	for i := 0; i < 100; i++ {
		buf = AppendUID(buf[:6], r1)
		if got, want := string(buf[6:]), string(NewUID(r2)); got != want {
			t.Fatalf("AppendUID #%d = %q, want %q", i, got, want)
		}
	}
}

func TestSeq(t *testing.T) {
	if got := Seq("c", 42); got != "c000042" {
		t.Fatalf("Seq = %q", got)
	}
}
