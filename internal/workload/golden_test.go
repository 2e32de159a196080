package workload_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	mtls "repro"
	"repro/internal/race"
	"repro/internal/workload"
)

// goldenSeed is the fixed seed of every campus build the golden test pins.
const goldenSeed = 20240504

// TestGenerateGolden pins the generator's output byte for byte: the
// SHA-256 of the ssl.log and x509.log mtls.WriteLogs renders, of a sorted
// dump of the CT log, and (at scale 2000) of every rendered report. Any
// change to the generator, the writers or the formatting helpers they
// share that moves a byte fails here.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		name   string
		spec   *mtls.Spec
		opts   []mtls.GenerateOption
		render bool // also pin mtls.Render(mtls.Analyze(build))
		ja3    bool // ssl.log has the 14-column fingerprinted schema
		want   map[string]string
	}{
		{
			name:   "campus-2000",
			spec:   mtls.CampusSpec(),
			opts:   []mtls.GenerateOption{mtls.WithScale(2000), mtls.WithSeed(goldenSeed)},
			render: true,
			want: map[string]string{
				"ssl.log":  "ba42848723b19bbb90e6275f07298884684fcbe5bf1e39e26dea7dd3744ac4c0",
				"x509.log": "d05361c2b25273e35af753fa0f980b152693ad49977ab002d050e2e60c9e8b5c",
				"ct":       "39a2df385cdba66050235e6544e6bdec473deb42b9f9617195637eb71608446b",
				"report":   "10598819ddfd532edafb5e82a139bb965e3738d3163da604546496708c40223e",
			},
		},
		{
			name: "campus-300",
			spec: mtls.CampusSpec(),
			opts: []mtls.GenerateOption{mtls.WithScale(300), mtls.WithSeed(goldenSeed)},
			want: map[string]string{
				"ssl.log":  "4f371a3cf58b9c312112d394c5acfd47cb32c951b98d82e62c4a476bdf2ededf",
				"x509.log": "127da589f0b3ea1e9844a306a4df5a51bf896c82838f96a49036c85d7795fa4e",
				"ct":       "46e8d854457a37d182641c9bc090ebdc65fb3e9e8b0d9ec43f2b24e1500745c2",
			},
		},
		{
			name: "three-cohort-2000",
			spec: workload.ThreeCohortSpec(),
			opts: []mtls.GenerateOption{mtls.WithScale(2000)},
			ja3:  true,
			want: map[string]string{
				"ssl.log":  "e6dddc5acc9cab62593ec47e36e4aee0194ce801229cb36cb8accb9313be2acb",
				"x509.log": "f13fc1b8b3f71aa48cba63b14999064d2a4ffe9bebc2850ed383bb6807b1c2e4",
				"ct":       "f428678c1cff276186263b0e95cd6d11b7d1e2f577eec49f69072defcfcdf716",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build, err := mtls.Generate(tc.spec, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			// The generator counts its rows before emitting them; a
			// count that drifts from the emit loops shows here.
			if n, c := len(build.Raw.Conns), cap(build.Raw.Conns); c != n {
				t.Errorf("Conns: cap %d, len %d: the row count and the emitted rows differ", c, n)
			}
			dir := t.TempDir()
			if err := mtls.WriteLogs(build.Raw, dir); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, name := range []string{"ssl.log", "x509.log"} {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				got[name] = sum(b)
				if name == "ssl.log" && bytes.Contains(b, []byte("\tja3\tja4\n")) != tc.ja3 {
					t.Errorf("ssl.log: fingerprinted schema = %v, want %v", !tc.ja3, tc.ja3)
				}
			}
			var dump []byte
			for _, d := range build.CT.Domains() {
				for _, e := range build.CT.Entries(d) {
					dump = fmt.Appendf(dump, "%s\t%s\t%s\t%s\t%d\n",
						d, e.Domain, e.IssuerOrg, e.IssuerCN, e.LoggedAt.UnixNano())
				}
			}
			got["ct"] = sum(dump)
			if tc.render {
				got["report"] = sum([]byte(mtls.Render(mtls.Analyze(build))))
			}
			for k, want := range tc.want {
				if got[k] != want {
					t.Errorf("%s: sha256 = %s, want %s", k, got[k], want)
				}
			}
		})
	}
}

// TestGenerateAllocGate pins the generator's allocations per generated
// row (connections plus certificates) for the campus spec at scale 2000.
// The bound is the measured 0.132 plus 10 %: strings, SAN lists and
// certificates are cut from shared blocks. The generator that allocated
// each of them on its own made 2.23, the string-formatting one before it
// 20.3.
func TestGenerateAllocGate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	const bound = 0.146
	var rows int
	allocs := testing.AllocsPerRun(2, func() {
		build, err := mtls.Generate(mtls.CampusSpec(), mtls.WithScale(2000), mtls.WithSeed(goldenSeed))
		if err != nil {
			t.Fatal(err)
		}
		rows = len(build.Raw.Conns) + len(build.Raw.Certs)
	})
	if perRow := allocs / float64(rows); perRow > bound {
		t.Errorf("mtls.Generate: %.3f allocs per row (%.0f over %d rows), want <= %.2f", perRow, allocs, rows, bound)
	}
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
