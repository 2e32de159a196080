package mtls

import (
	"encoding/json"
	"strings"
	"testing"
	"unicode"

	"repro/internal/infotype"
	"repro/internal/psl"
)

// TestReportsCarryNoPII pins §6's privacy finding against the reports
// themselves: client CNs and SANs carry personal names, user accounts and
// email addresses, and the CN/SAN tables count those types without
// carrying a value. Neither Render nor the JSON of the 23 reports may
// contain any value the classifier labels so, at two campus scales.
func TestReportsCarryNoPII(t *testing.T) {
	for _, scale := range []int{200, 2000} {
		build := campusBuild(t, scale)
		cls := infotype.New(psl.Default(), build.CampusIssuers)
		pii := map[string]bool{}
		for _, c := range build.Raw.Certs {
			for _, v := range append([]string{c.SubjectCN}, c.SANDNS...) {
				switch cls.Classify(v, c.IssuerKey()) {
				case infotype.PersonalName, infotype.UserAccount, infotype.Email:
					pii[v] = true
				}
			}
		}
		if len(pii) == 0 {
			t.Fatalf("1/%d: the build has no personal name, user account or email", scale)
		}
		a := Analyze(build)
		js, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		for name, out := range map[string]string{"Render": Render(a), "JSON": string(js)} {
			for v := range pii {
				if containsValue(out, v) {
					t.Errorf("1/%d: %s carries the CN/SAN value %q", scale, name, v)
				}
			}
		}
		t.Logf("1/%d: %d labelled values, none in the reports", scale, len(pii))
	}
}

// containsValue reports whether v occurs in s as a whole value: not
// inside a longer run of letters and digits (a short user account can
// occur inside a hex serial).
func containsValue(s, v string) bool {
	isWord := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }
	for i := 0; ; {
		j := strings.Index(s[i:], v)
		if j < 0 {
			return false
		}
		start, end := i+j, i+j+len(v)
		before := start == 0 || !isWord(rune(s[start-1]))
		after := end == len(s) || !isWord(rune(s[end]))
		if before && after {
			return true
		}
		i = start + 1
	}
}
