// Package zeek reimplements the slice of Zeek the paper depends on: the
// ssl.log and x509.log record types, their tab-separated log format, a
// passive analyzer that turns captured TLS byte streams into those records
// (via dynamic protocol detection, so TLS is found on any port), and the
// join between the two logs.
//
// The paper's §3.1: "SSL.log provides detailed information of TLS
// connections, including the IP, port, the server name (SNI) of the
// connection, the certificate chain information, and the success of
// connection establishment. … Each certificate in X509.log is linked to
// SSL.log through unique IDs."
package zeek

import (
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
)

// SSLRecord is one row of ssl.log: a single TLS connection observed at the
// border.
type SSLRecord struct {
	// TS is when the connection was first seen.
	TS time.Time
	// UID is the Zeek connection identifier.
	UID ids.UID
	// Originator (client) and responder (server) endpoints.
	OrigIP   string
	OrigPort uint16
	RespIP   string
	RespPort uint16
	// Version is the negotiated TLS version string ("TLSv12").
	Version string
	// SNI is the server_name from the ClientHello ("" when absent).
	SNI string
	// Established reports handshake completion.
	Established bool
	// ServerChain holds fingerprints of the server-presented chain, leaf
	// first; ClientChain likewise for the client. A connection with both
	// non-empty is a mutual-TLS connection (§3.2.1).
	ServerChain []ids.Fingerprint
	ClientChain []ids.Fingerprint
	// JA3/JA4 are ClientHello fingerprint columns ("" = not recorded).
	// They ride the extended 14-field ssl.log schema; the legacy 12-field
	// schema reads back with both empty. omitempty keeps snapshot and
	// spill encodings byte-identical for fingerprint-free records.
	JA3 string `json:",omitempty"`
	JA4 string `json:",omitempty"`
	// Weight is the number of identical connections this row stands for.
	// The wire path always writes 1; the bulk path aggregates (DESIGN.md
	// §5). Percentages are therefore invariant to the scale knob.
	Weight int64
}

// IsMutual reports whether both endpoints presented certificates.
func (r *SSLRecord) IsMutual() bool {
	return len(r.ServerChain) > 0 && len(r.ClientChain) > 0
}

// ServerLeaf returns the server leaf fingerprint ("" when no chain).
func (r *SSLRecord) ServerLeaf() ids.Fingerprint {
	if len(r.ServerChain) == 0 {
		return ""
	}
	return r.ServerChain[0]
}

// ClientLeaf returns the client leaf fingerprint ("" when no chain).
func (r *SSLRecord) ClientLeaf() ids.Fingerprint {
	if len(r.ClientChain) == 0 {
		return ""
	}
	return r.ClientChain[0]
}

// X509Record is one row of x509.log: a certificate seen in some
// connection, keyed by fingerprint.
type X509Record struct {
	// TS is when this certificate was first observed.
	TS time.Time
	// ID links the record to ssl.log chains (Zeek file ID style).
	ID ids.FileID
	// Cert is the parsed certificate.
	Cert *certmodel.CertInfo
}

// Dataset is the joined view the analyses consume: all connections plus a
// fingerprint-indexed certificate table.
type Dataset struct {
	Conns []SSLRecord
	Certs map[ids.Fingerprint]*certmodel.CertInfo
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{Certs: make(map[ids.Fingerprint]*certmodel.CertInfo)}
}

// AddCert indexes a certificate, keeping the first observation.
func (d *Dataset) AddCert(c *certmodel.CertInfo) {
	if _, ok := d.Certs[c.Fingerprint]; !ok {
		d.Certs[c.Fingerprint] = c
	}
}

// Cert resolves a fingerprint (nil when the certificate was never logged —
// possible for truncated captures).
func (d *Dataset) Cert(fp ids.Fingerprint) *certmodel.CertInfo { return d.Certs[fp] }

// Merge appends other into d.
func (d *Dataset) Merge(other *Dataset) {
	d.Conns = append(d.Conns, other.Conns...)
	for _, c := range other.Certs {
		d.AddCert(c)
	}
}
