package zeek

// The reference parser: the string-based row decoding exactly as it
// existed before the zero-copy rework, kept test-only. The fuzz
// harnesses run both implementations over the same rows and require
// byte-for-byte identical records and an identical quarantine taxonomy
// — the rework must be a pure representation change, never a semantic
// one.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
)

func refParseSSLCols(cols []string) (SSLRecord, error) {
	ts, err := refParseTS(cols[0])
	if err != nil {
		return SSLRecord{}, &RowError{Reason: RejectTimestamp, Err: err}
	}
	op, err := refParsePort(cols[3])
	if err != nil {
		return SSLRecord{}, rowErrf(RejectPort, "orig port: %v", err)
	}
	rp, err := refParsePort(cols[5])
	if err != nil {
		return SSLRecord{}, rowErrf(RejectPort, "resp port: %v", err)
	}
	w, err := strconv.ParseInt(cols[11], 10, 64)
	if err != nil {
		return SSLRecord{}, rowErrf(RejectWeight, "weight: %v", err)
	}
	if w < 1 {
		return SSLRecord{}, rowErrf(RejectWeight, "weight %d < 1", w)
	}
	return SSLRecord{
		TS:          ts,
		UID:         ids.UID(cols[1]),
		OrigIP:      refUnsetOr(cols[2]),
		OrigPort:    op,
		RespIP:      refUnsetOr(cols[4]),
		RespPort:    rp,
		Version:     refUnsetOr(cols[6]),
		SNI:         unescapeField(refUnsetOr(cols[7])),
		Established: cols[8] == "T",
		ServerChain: refSplitFPs(cols[9]),
		ClientChain: refSplitFPs(cols[10]),
		Weight:      w,
	}, nil
}

func refParseX509Cols(cols []string) (X509Record, error) {
	ts, err := refParseTS(cols[0])
	if err != nil {
		return X509Record{}, &RowError{Reason: RejectTimestamp, Err: err}
	}
	nb, err := refParseTS(cols[11])
	if err != nil {
		return X509Record{}, &RowError{Reason: RejectTimestamp, Err: err}
	}
	na, err := refParseTS(cols[12])
	if err != nil {
		return X509Record{}, &RowError{Reason: RejectTimestamp, Err: err}
	}
	ver, err := strconv.Atoi(cols[3])
	if err != nil || ver < 0 {
		return X509Record{}, rowErrf(RejectCertVersion, "cert version %q", cols[3])
	}
	bits, err := strconv.Atoi(cols[14])
	if err != nil || bits < 0 {
		return X509Record{}, rowErrf(RejectKeyLength, "key length %q", cols[14])
	}
	icn, iorg := certmodel.ParseDN(unescapeField(refUnsetOr(cols[5])))
	scn, sorg := certmodel.ParseDN(unescapeField(refUnsetOr(cols[6])))
	cert := &certmodel.CertInfo{
		Fingerprint: ids.Fingerprint(cols[2]),
		Version:     ver,
		SerialHex:   refUnsetOr(cols[4]),
		IssuerCN:    icn,
		IssuerOrg:   iorg,
		SubjectCN:   scn,
		SubjectOrg:  sorg,
		SANDNS:      refSplitStrs(cols[7]),
		SANIP:       refSplitStrs(cols[8]),
		SANEmail:    refSplitStrs(cols[9]),
		SANURI:      refSplitStrs(cols[10]),
		NotBefore:   nb,
		NotAfter:    na,
		KeyAlg:      refParseKeyAlg(cols[13]),
		KeyBits:     bits,
		SelfSigned:  cols[15] == "T",
	}
	return X509Record{TS: ts, ID: ids.FileID(cols[1]), Cert: cert}, nil
}

// refParseTS is parseTS as it was before its integer fast path: every
// timestamp goes through strconv.ParseFloat.
func refParseTS(s string) (time.Time, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("zeek: timestamp %q: %w", s, err)
	}
	if math.IsNaN(f) || f < -maxTS || f > maxTS {
		return time.Time{}, fmt.Errorf("zeek: timestamp %q outside ±%d", s, int64(maxTS))
	}
	sec := int64(f)
	nsec := int64((f - float64(sec)) * 1e9)
	return time.Unix(sec, nsec).UTC(), nil
}

func refParsePort(s string) (uint16, error) {
	p, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 65535 {
		return 0, errPortRange(p)
	}
	return uint16(p), nil
}

func errPortRange(p int) error { return rowErrf(RejectPort, "port %d outside [0, 65535]", p).Err }

func refParseKeyAlg(s string) certmodel.KeyAlg {
	switch s {
	case "rsa":
		return certmodel.KeyRSA
	case "ecdsa":
		return certmodel.KeyECDSA
	default:
		return certmodel.KeyUnknown
	}
}

func refUnsetOr(s string) string {
	if s == unsetField {
		return ""
	}
	return s
}

func refSplitFPs(s string) []ids.Fingerprint {
	if s == setEmpty || s == unsetField || s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]ids.Fingerprint, len(parts))
	for i, p := range parts {
		out[i] = ids.Fingerprint(p)
	}
	return out
}

func refSplitStrs(s string) []string {
	if s == setEmpty || s == unsetField || s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = unescapeField(parts[i])
	}
	return parts
}
