package workload

import (
	"fmt"
	"strconv"

	"repro/internal/arena"
	"repro/internal/ids"
)

// Kind enumerates the kinds of content a generated CN or SAN entry can
// carry — one per §6.1 information type, plus the free-text and random
// shapes Table 9 sub-classifies.
type Kind int

const (
	// KindEmpty leaves the field empty.
	KindEmpty Kind = iota
	// KindDomain emits the entity's domain (Text), optionally with a
	// per-certificate host label prefix when Text starts with "*.".
	KindDomain
	// KindHost emits "hostNNN.<Text>" — a per-certificate hostname.
	KindHost
	// KindIP emits an IPv4 literal.
	KindIP
	// KindMAC emits a colon-separated MAC address.
	KindMAC
	// KindSIP emits "sip:userNNN@Text".
	KindSIP
	// KindEmail emits "userNNN@Text".
	KindEmail
	// KindUserAccount emits a campus computing ID ("hd7gr" shape).
	KindUserAccount
	// KindPersonName emits "First Last" from the name lexicons.
	KindPersonName
	// KindText emits Text verbatim (product/org names, "__transfer__",
	// "Dtls", "Hybrid Runbook Worker", …).
	KindText
	// KindRandomHex emits N random hex characters.
	KindRandomHex
	// KindUUID emits a canonical 36-char UUID.
	KindUUID
	// KindRandomAlnum emits N random mixed-case alphanumerics.
	KindRandomAlnum
	// KindLocalhost emits "localhost" or "host.localdomain".
	KindLocalhost
)

// Content is one weighted choice in a CN/SAN distribution.
type Content struct {
	Kind   Kind
	Text   string  // meaning depends on Kind
	N      int     // length for the random kinds
	Weight float64 // relative weight in the distribution
}

// contentNames used for person generation, mirrored from nerlite's
// lexicons so the recognizer's dictionary covers the generated space.
var genFirstNames = []string{
	"James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
	"Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
	"Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Daniel",
	"Nancy", "Matthew", "Betty", "Anthony", "Sandra", "Mark", "Margaret",
	"Wei", "Ming", "Hiroshi", "Yuki", "Ahmed", "Fatima", "Raj", "Priya",
	"Ivan", "Olga", "Hans", "Greta", "Pierre", "Claire", "Diego", "Lucia",
}

var genLastNames = []string{
	"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
	"Davis", "Rodriguez", "Martinez", "Wilson", "Anderson", "Thomas",
	"Taylor", "Moore", "Jackson", "Martin", "Lee", "Perez", "Thompson",
	"White", "Harris", "Chen", "Wang", "Li", "Zhang", "Liu", "Yang",
	"Kim", "Patel", "Singh", "Kumar", "Nguyen", "Tran", "Tanaka", "Suzuki",
	"Mueller", "Schmidt", "Ivanov", "Dubois", "Rossi", "Ferrari",
}

// render materializes one content choice for certificate #idx of an
// entity, cutting any string it builds from strs (allocating it when strs
// is nil). All randomness flows through rng so generation is
// reproducible.
func (c Content) render(strs *arena.Strings, rng *ids.RNG, idx int) string {
	var buf [64]byte
	b := buf[:0]
	switch c.Kind {
	case KindEmpty:
		return ""
	case KindDomain:
		return c.Text
	case KindHost:
		b = appendHost(b, idx, c.Text)
	case KindIP:
		b = append(b, "10."...)
		b = strconv.AppendInt(b, int64(rng.Intn(250)+1), 10)
		b = strconv.AppendInt(append(b, '.'), int64(rng.Intn(250)+1), 10)
		b = strconv.AppendInt(append(b, '.'), int64(rng.Intn(250)+1), 10)
	case KindMAC:
		const hexd = "0123456789ABCDEF"
		for i := 0; i < 6; i++ {
			if i > 0 {
				b = append(b, ':')
			}
			v := byte(rng.Uint64())
			b = append(b, hexd[v>>4], hexd[v&15])
		}
	case KindSIP:
		b = appendPadded(append(b, "sip:user"...), idx%9999, 4)
		b = append(append(b, '@'), orDefault(c.Text, "voip.example.com")...)
	case KindEmail:
		b = appendPadded(append(b, "user"...), idx%9999, 4)
		b = append(append(b, '@'), orDefault(c.Text, "example.com")...)
	case KindUserAccount:
		// 2-3 lowercase letters, digit, 1-3 alphanumerics: "hd7gr" shape.
		// Each loop bound draws anew on every iteration.
		const letters = "abcdefghijklmnopqrstuvwxyz"
		for i := 0; i < 2+rng.Intn(2); i++ {
			b = append(b, letters[rng.Intn(26)])
		}
		b = append(b, byte('0'+rng.Intn(10)))
		for i := 0; i < 1+rng.Intn(2); i++ {
			b = append(b, letters[rng.Intn(26)])
		}
	case KindPersonName:
		first := ids.Pick(rng, genFirstNames)
		b = append(append(append(b, first...), ' '), ids.Pick(rng, genLastNames)...)
	case KindText:
		return c.Text
	case KindRandomHex:
		b = appendRandomHex(b, rng, orN(c.N, 8))
	case KindUUID:
		h := appendRandomHex(b, rng, 32)
		var u [36]byte
		b = append(append(append(append(append(append(append(append(append(u[:0],
			h[0:8]...), '-'), h[8:12]...), '-'), h[12:16]...), '-'), h[16:20]...), '-'), h[20:32]...)
	case KindRandomAlnum:
		const alnum = "abcdefghjkmnpqrstvwxyzABCDEFGHJKMNPQRSTVWXYZ0123456789"
		n := orN(c.N, 12)
		for i := 0; i < n; i++ {
			b = append(b, alnum[rng.Intn(len(alnum))])
		}
	case KindLocalhost:
		if rng.Bool(0.5) {
			return "localhost"
		}
		b = append(appendPadded(append(b, "host"...), idx%999, 3), ".localdomain"...)
	default:
		return ""
	}
	return strs.Cut(b)
}

// appendRandomHex appends n random lowercase hex digits.
func appendRandomHex(b []byte, rng *ids.RNG, n int) []byte {
	const hexd = "0123456789abcdef"
	for i := 0; i < n; i++ {
		b = append(b, hexd[rng.Intn(16)])
	}
	return b
}

// appendHost appends "host<idx%9999, four digits>.<domain>", the
// per-certificate hostname shape.
func appendHost(b []byte, idx int, domain string) []byte {
	return append(append(appendPadded(append(b, "host"...), idx%9999, 4), '.'), domain...)
}

// appendPadded appends n in decimal, zero-padded to width digits: the
// bytes fmt's "%0<width>d" writes.
func appendPadded(b []byte, n, width int) []byte {
	if n < 0 {
		return fmt.Appendf(b, "%0*d", width, n)
	}
	start := len(b)
	b = strconv.AppendInt(b, int64(n), 10)
	if pad := width - (len(b) - start); pad > 0 {
		b = append(b, make([]byte, pad)...)
		copy(b[start+pad:], b[start:len(b)-pad])
		for i := start; i < start+pad; i++ {
			b[i] = '0'
		}
	}
	return b
}

// pickContent draws one weighted choice.
func pickContent(rng *ids.RNG, cs []Content) Content {
	if len(cs) == 0 {
		return Content{Kind: KindEmpty}
	}
	return cs[ids.WeightedPickBy(rng, cs, func(c *Content) float64 { return c.Weight })]
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

func orN(n, d int) int {
	if n == 0 {
		return d
	}
	return n
}
