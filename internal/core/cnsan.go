package core

import (
	"repro/internal/certmodel"
	"repro/internal/infotype"
	"repro/internal/nerlite"
	"repro/internal/truststore"
)

// UtilizationReport is Table 7: how many mutual-TLS certificates have
// non-empty CN / SAN DNS values, by role and CA class.
type UtilizationReport struct {
	Rows []UtilizationRow
}

// UtilizationRow is one Table 7 row.
type UtilizationRow struct {
	Label       string
	Total       int
	NonEmptyCN  int
	NonEmptySAN int
}

// CNShare / SANShare are the utilization ratios.
func (r UtilizationRow) CNShare() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.NonEmptyCN) / float64(r.Total)
}

// SANShare returns the SAN utilization ratio.
func (r UtilizationRow) SANShare() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.NonEmptySAN) / float64(r.Total)
}

// Row returns the named row.
func (r *UtilizationReport) Row(label string) UtilizationRow {
	for _, row := range r.Rows {
		if row.Label == label {
			return row
		}
	}
	return UtilizationRow{Label: label}
}

func (e *enriched) utilization() *UtilizationReport {
	type bucket struct{ total, cn, san int }
	var srv, srvPub, srvPriv, cli, cliPub, cliPriv bucket
	add := func(b *bucket, c *certmodel.CertInfo) {
		b.total++
		if c.SubjectCN != "" {
			b.cn++
		}
		if len(c.SANDNS) > 0 {
			b.san++
		}
	}
	for _, u := range e.usage.list {
		pub := u.class == truststore.Public
		if u.mutualServer {
			add(&srv, u.cert)
			if pub {
				add(&srvPub, u.cert)
			} else {
				add(&srvPriv, u.cert)
			}
		}
		if u.mutualClient {
			add(&cli, u.cert)
			if pub {
				add(&cliPub, u.cert)
			} else {
				add(&cliPriv, u.cert)
			}
		}
	}
	row := func(label string, b bucket) UtilizationRow {
		return UtilizationRow{Label: label, Total: b.total, NonEmptyCN: b.cn, NonEmptySAN: b.san}
	}
	return &UtilizationReport{Rows: []UtilizationRow{
		row("Server certs.", srv),
		row("Server - Public CA", srvPub),
		row("Server - Private CA", srvPriv),
		row("Client certs.", cli),
		row("Client - Public CA", cliPub),
		row("Client - Private CA", cliPriv),
	}}
}

// ContentsReport is Table 8: information types in CN and SAN, by role ×
// CA class, EXCLUDING certificates shared by both server and client
// (analyzed separately in Table 13).
type ContentsReport struct {
	// Cells[column][infotype] = count. Columns: "server-public",
	// "server-private", "client-public", "client-private"; each has a CN
	// and a SAN table.
	CN  map[string]map[string]int
	SAN map[string]map[string]int
	// Totals per column (non-empty CN / SAN cert counts).
	CNTotals  map[string]int
	SANTotals map[string]int
}

// Share returns a cell's ratio of its column total.
func (r *ContentsReport) Share(field, column, infoType string) float64 {
	var cell int
	var total int
	if field == "CN" {
		cell, total = r.CN[column][infoType], r.CNTotals[column]
	} else {
		cell, total = r.SAN[column][infoType], r.SANTotals[column]
	}
	if total == 0 {
		return 0
	}
	return float64(cell) / float64(total)
}

// contentColumns enumerates Table 8's column keys.
var contentColumns = []string{"server-public", "server-private", "client-public", "client-private"}

func (e *enriched) contents() *ContentsReport {
	rep := newContentsReport()
	e.contentMu.Lock()
	defer e.contentMu.Unlock()
	for _, u := range e.usage.list {
		if u.sharedSameConn {
			continue // Table 13 handles these
		}
		pub := u.class == truststore.Public
		if u.mutualServer {
			e.accumulateContents(rep, column(false, pub), u)
		}
		if u.mutualClient {
			e.accumulateContents(rep, column(true, pub), u)
		}
	}
	return rep
}

func newContentsReport() *ContentsReport {
	rep := &ContentsReport{
		CN: map[string]map[string]int{}, SAN: map[string]map[string]int{},
		CNTotals: map[string]int{}, SANTotals: map[string]int{},
	}
	for _, c := range contentColumns {
		rep.CN[c] = map[string]int{}
		rep.SAN[c] = map[string]int{}
	}
	return rep
}

// column names the Table 8 column of a client or server certificate.
func column(client, pub bool) string {
	switch {
	case client && pub:
		return "client-public"
	case client:
		return "client-private"
	case pub:
		return "server-public"
	}
	return "server-private"
}

// accumulateContents counts one certificate's CN and SAN types into a
// column of contentColumns. The caller holds e.contentMu.
func (e *enriched) accumulateContents(rep *ContentsReport, col string, u *certUsage) {
	c := u.cert
	if c.SubjectCN == "" && len(c.SANDNS) == 0 {
		return
	}
	cc := e.contentsOf(u)
	if c.SubjectCN != "" {
		rep.CNTotals[col]++
		rep.CN[col][cc.cn.String()]++
	}
	if len(c.SANDNS) > 0 {
		rep.SANTotals[col]++
		// A SAN can contain multiple types; count each type once per cert
		// (the paper's note that SAN percentages can exceed 100%).
		for _, t := range infotype.AllTypes {
			if cc.san&(1<<t) != 0 {
				rep.SAN[col][t.String()]++
			}
		}
	}
}

// certContents is one certificate's CN/SAN classification: everything
// Tables 8, 9, 13 and 14 read of its values. It is a pure function of the
// certificate and the campus issuer list, so each certificate is
// classified once however often the tables are read.
type certContents struct {
	filled bool
	// cn is the CN's type; cnBucket its Table 9 bucket when the CN is
	// non-empty and Unidentified.
	cn       infotype.InfoType
	cnBucket infotype.RandomBucket
	// san has bit t set when some SAN DNS value is of type t.
	san uint16
	// sanBuckets are the Table 9 buckets of the Unidentified SAN DNS
	// values, in SAN order.
	sanBuckets []infotype.RandomBucket
}

// campusValue keys the value memo: a value's type depends on its
// certificate's issuer only through the campus flag.
type campusValue struct {
	value  string
	campus bool
}

// contentsOf returns u's classification, filling it on first use. The
// caller holds e.contentMu.
func (e *enriched) contentsOf(u *certUsage) *certContents {
	cc := &u.contents
	if cc.filled {
		return cc
	}
	c := u.cert
	issuer := c.IssuerKey()
	campus, ok := e.campus[issuer]
	if !ok {
		campus = e.info.IsCampusIssuer(issuer)
		e.campus[issuer] = campus
	}
	cc.cn = e.infoType(c.SubjectCN, campus)
	if c.SubjectCN != "" && cc.cn == infotype.Unidentified {
		cc.cnBucket = infotype.ClassifyUnidentified(c.SubjectCN, e.recognizableIssuer(issuer))
	}
	for _, v := range c.SANDNS {
		t := e.infoType(v, campus)
		cc.san |= 1 << t
		if t == infotype.Unidentified {
			cc.sanBuckets = append(cc.sanBuckets, infotype.ClassifyUnidentified(v, e.recognizableIssuer(issuer)))
		}
	}
	cc.filled = true
	return cc
}

// infoType is the memoized infotype.ClassifyCampus. The caller holds
// e.contentMu.
func (e *enriched) infoType(value string, campus bool) infotype.InfoType {
	k := campusValue{value, campus}
	t, ok := e.infoTypes[k]
	if !ok {
		t = e.info.ClassifyCampus(value, campus)
		e.infoTypes[k] = t
	}
	return t
}

// recognizableIssuer reports, memoized, whether an issuer names the
// generator of its certificates' random strings (Table 9's "by Issuer"
// bucket); Recognize is fuzzy-match expensive and issuers are few. The
// caller holds e.contentMu.
func (e *enriched) recognizableIssuer(issuer string) bool {
	v, ok := e.recognizable[issuer]
	if !ok {
		v = nerlite.Recognize(issuer) != nerlite.LabelNone
		e.recognizable[issuer] = v
	}
	return v
}

// UnidentifiedReport is Table 9: sub-classification of unidentified CN/SAN
// strings into non-random and random buckets.
type UnidentifiedReport struct {
	// Buckets[column][bucket] = count. Columns as Table 9: "server-private-CN",
	// "client-public-CN", "client-private-CN", "client-private-SAN".
	Buckets map[string]map[string]int
	Totals  map[string]int
}

// Share returns a bucket's column share.
func (r *UnidentifiedReport) Share(column, bucket string) float64 {
	if r.Totals[column] == 0 {
		return 0
	}
	return float64(r.Buckets[column][bucket]) / float64(r.Totals[column])
}

func (e *enriched) unidentified() *UnidentifiedReport {
	rep := &UnidentifiedReport{Buckets: map[string]map[string]int{}, Totals: map[string]int{}}
	add := func(col string, b infotype.RandomBucket) {
		if rep.Buckets[col] == nil {
			rep.Buckets[col] = map[string]int{}
		}
		rep.Buckets[col][b.String()]++
		rep.Totals[col]++
	}
	e.contentMu.Lock()
	defer e.contentMu.Unlock()
	for _, u := range e.usage.list {
		if u.sharedSameConn {
			continue
		}
		c := u.cert
		if !u.mutualServer && !u.mutualClient || c.SubjectCN == "" && len(c.SANDNS) == 0 {
			continue
		}
		cc := e.contentsOf(u)
		pub := u.class == truststore.Public
		if c.SubjectCN != "" && cc.cn == infotype.Unidentified {
			if u.mutualServer && !pub {
				add("server-private-CN", cc.cnBucket)
			}
			if u.mutualClient && pub {
				add("client-public-CN", cc.cnBucket)
			}
			if u.mutualClient && !pub {
				add("client-private-CN", cc.cnBucket)
			}
		}
		if u.mutualClient && !pub {
			for _, b := range cc.sanBuckets {
				add("client-private-SAN", b)
			}
		}
	}
	return rep
}

// SharedInfoReport is Table 13: CN/SAN utilization and information types
// for certificates shared by both endpoints of single connections.
type SharedInfoReport struct {
	Certs        int
	PrivateShare float64
	Utilization  []UtilizationRow // "Certificates", "Public CA", "Private CA"
	CN           map[string]map[string]int
	SAN          map[string]map[string]int
	CNTotals     map[string]int
	SANTotals    map[string]int
}

func (e *enriched) sharedInfo() *SharedInfoReport {
	rep := &SharedInfoReport{
		CN: map[string]map[string]int{}, SAN: map[string]map[string]int{},
		CNTotals: map[string]int{}, SANTotals: map[string]int{},
	}
	type bucket struct{ total, cn, san int }
	var all, pub, priv bucket
	add := func(b *bucket, c *certmodel.CertInfo) {
		b.total++
		if c.SubjectCN != "" {
			b.cn++
		}
		if len(c.SANDNS) > 0 {
			b.san++
		}
	}
	cr := newContentsReport()
	e.contentMu.Lock()
	defer e.contentMu.Unlock()
	for _, u := range e.usage.list {
		if !u.sharedSameConn {
			continue
		}
		rep.Certs++
		isPub := u.class == truststore.Public
		add(&all, u.cert)
		if isPub {
			add(&pub, u.cert)
			e.accumulateContents(cr, "server-public", u)
		} else {
			add(&priv, u.cert)
			e.accumulateContents(cr, "server-private", u)
		}
	}
	if rep.Certs > 0 {
		rep.PrivateShare = float64(priv.total) / float64(rep.Certs)
	}
	rep.Utilization = []UtilizationRow{
		{Label: "Certificates", Total: all.total, NonEmptyCN: all.cn, NonEmptySAN: all.san},
		{Label: "Public CA", Total: pub.total, NonEmptyCN: pub.cn, NonEmptySAN: pub.san},
		{Label: "Private CA", Total: priv.total, NonEmptyCN: priv.cn, NonEmptySAN: priv.san},
	}
	rep.CN["public"] = cr.CN["server-public"]
	rep.CN["private"] = cr.CN["server-private"]
	rep.SAN["public"] = cr.SAN["server-public"]
	rep.SAN["private"] = cr.SAN["server-private"]
	rep.CNTotals["public"] = cr.CNTotals["server-public"]
	rep.CNTotals["private"] = cr.CNTotals["server-private"]
	rep.SANTotals["public"] = cr.SANTotals["server-public"]
	rep.SANTotals["private"] = cr.SANTotals["server-private"]
	return rep
}

// NonMutualReport is Table 14: CN/SAN statistics for server certificates
// from non-mutual TLS connections.
type NonMutualReport struct {
	Utilization []UtilizationRow // "Certificates", "Public CA", "Private CA"
	PublicShare float64          // paper: 85% public
	CN          map[string]map[string]int
	SAN         map[string]map[string]int
	CNTotals    map[string]int
	SANTotals   map[string]int
}

func (e *enriched) nonMutual() *NonMutualReport {
	rep := &NonMutualReport{
		CN: map[string]map[string]int{}, SAN: map[string]map[string]int{},
		CNTotals: map[string]int{}, SANTotals: map[string]int{},
	}
	type bucket struct{ total, cn, san int }
	var all, pub, priv bucket
	add := func(b *bucket, c *certmodel.CertInfo) {
		b.total++
		if c.SubjectCN != "" {
			b.cn++
		}
		if len(c.SANDNS) > 0 {
			b.san++
		}
	}
	cr := newContentsReport()
	e.contentMu.Lock()
	defer e.contentMu.Unlock()
	for _, u := range e.usage.list {
		// Server certs used ONLY outside mutual TLS.
		if !u.asServer || u.mutualServer {
			continue
		}
		isPub := u.class == truststore.Public
		add(&all, u.cert)
		if isPub {
			add(&pub, u.cert)
			e.accumulateContents(cr, "server-public", u)
		} else {
			add(&priv, u.cert)
			e.accumulateContents(cr, "server-private", u)
		}
	}
	if all.total > 0 {
		rep.PublicShare = float64(pub.total) / float64(all.total)
	}
	rep.Utilization = []UtilizationRow{
		{Label: "Certificates", Total: all.total, NonEmptyCN: all.cn, NonEmptySAN: all.san},
		{Label: "Public CA", Total: pub.total, NonEmptyCN: pub.cn, NonEmptySAN: pub.san},
		{Label: "Private CA", Total: priv.total, NonEmptyCN: priv.cn, NonEmptySAN: priv.san},
	}
	rep.CN["public"] = cr.CN["server-public"]
	rep.CN["private"] = cr.CN["server-private"]
	rep.SAN["public"] = cr.SAN["server-public"]
	rep.SAN["private"] = cr.SAN["server-private"]
	rep.CNTotals["public"] = cr.CNTotals["server-public"]
	rep.CNTotals["private"] = cr.CNTotals["server-private"]
	rep.SANTotals["public"] = cr.SANTotals["server-public"]
	rep.SANTotals["private"] = cr.SANTotals["server-private"]
	return rep
}
