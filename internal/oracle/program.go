package oracle

import (
	"fmt"
	"strconv"
	"strings"
)

// Program is one parsed program line; doc.go has the grammar.
type Program struct {
	Seed    uint64
	Scale   int
	Spec    string // "campus" or "cohorts"
	Sensors int    // 1–4
	Split   string // "contig" or "rr"
	Store   string // "memory" or "disk"
	Ret     int    // retention in days; 0 retains everything
	Policy  string // "block" or "drop"
	Batch   int    // events per Ingest*Batch call
	Order   Order
	Sync    string // "poll" or "follow"
	Ops     []Op
}

// Order is a certificate/connection interleaving. Every interleaving
// keeps the certificates in fingerprint order and the connections in
// dataset order; only how the two are merged differs.
type Order struct {
	Kind string // "certs-first", "conns-first", "chunk" or "perm"
	K, M int    // chunk: K certificates, then M connections, repeated
	Seed uint64 // perm: the seed of a random merge
}

// Op is one step of the fault schedule.
type Op struct {
	Name    string // read, ck, compact, crash, kill, restore, fresh, sync
	Stage   string // crash: the atomicfile stage that fails
	Compact bool   // crash: the commit is a compaction, not a delta
	Order   *Order // restore, fresh: the interleaving of what is re-fed
	Sensor  int    // the one sensor it applies to, or -1 for all
	At      int    // feed position in thousandths, or -1 for where the feed is
}

var (
	specs    = []string{"campus", "cohorts"}
	splits   = []string{"contig", "rr"}
	stores   = []string{"memory", "disk"}
	policies = []string{"block", "drop"}
	syncs    = []string{"poll", "follow"}
	opNames  = []string{"read", "ck", "compact", "crash", "kill", "restore", "fresh", "sync"}
	// stages are the atomicfile commit stages a crash can hit.
	stages = []string{"create", "write", "sync", "close", "rename", "syncdir"}
)

const maxOps = 24

func defaults() Program {
	return Program{
		Seed: 1, Scale: 4000, Spec: "campus", Sensors: 1, Split: "contig",
		Store: "memory", Policy: "block", Batch: 64,
		Order: Order{Kind: "certs-first"}, Sync: "poll",
	}
}

func oneOf(key, v string, allowed []string) (string, error) {
	for _, a := range allowed {
		if v == a {
			return v, nil
		}
	}
	return "", fmt.Errorf("%s=%q: want one of %s", key, v, strings.Join(allowed, "|"))
}

func intIn(key, v string, lo, hi int) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("%s=%q: want an integer in [%d, %d]", key, v, lo, hi)
	}
	return n, nil
}

// Parse reads one program line: space-separated key=value fields, every
// one optional, each at most once.
func Parse(line string) (Program, error) {
	p := defaults()
	seen := map[string]bool{}
	for _, f := range strings.Fields(line) {
		key, v, ok := strings.Cut(f, "=")
		if !ok {
			return p, fmt.Errorf("field %q is not key=value", f)
		}
		if seen[key] {
			return p, fmt.Errorf("%s given twice", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "scale":
			p.Scale, err = intIn(key, v, 500, 50000)
		case "spec":
			p.Spec, err = oneOf(key, v, specs)
		case "sensors":
			p.Sensors, err = intIn(key, v, 1, 4)
		case "split":
			p.Split, err = oneOf(key, v, splits)
		case "store":
			p.Store, err = oneOf(key, v, stores)
		case "ret":
			p.Ret, err = intIn(key, v, 0, 1000)
		case "policy":
			p.Policy, err = oneOf(key, v, policies)
		case "batch":
			p.Batch, err = intIn(key, v, 1, 4096)
		case "order":
			p.Order, err = parseOrder(v)
		case "sync":
			p.Sync, err = oneOf(key, v, syncs)
		case "ops":
			p.Ops, err = parseOps(v)
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return p, err
		}
	}
	for _, op := range p.Ops {
		if op.Sensor >= p.Sensors {
			return p, fmt.Errorf("op %s names sensor %d of %d", op.Name, op.Sensor, p.Sensors)
		}
	}
	return p, nil
}

func parseOrder(v string) (Order, error) {
	kind, rest, _ := strings.Cut(v, ":")
	switch kind {
	case "certs-first", "conns-first":
		if rest != "" {
			break
		}
		return Order{Kind: kind}, nil
	case "chunk":
		ks, ms, ok := strings.Cut(rest, ":")
		if !ok {
			break
		}
		k, err1 := intIn("chunk", ks, 1, 4096)
		m, err2 := intIn("chunk", ms, 1, 4096)
		if err1 != nil || err2 != nil {
			break
		}
		return Order{Kind: kind, K: k, M: m}, nil
	case "perm":
		seed, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			break
		}
		return Order{Kind: kind, Seed: seed}, nil
	}
	return Order{}, fmt.Errorf("order %q: want certs-first|conns-first|chunk:K:M|perm:SEED", v)
}

func parseOps(v string) ([]Op, error) {
	var ops []Op
	items := strings.Split(v, ",")
	for i, item := range items {
		if item == "end" {
			if i != len(items)-1 {
				return nil, fmt.Errorf("ops: end must be last")
			}
			break
		}
		op, err := parseOp(item)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	if len(ops) > maxOps {
		return nil, fmt.Errorf("ops: %d ops, at most %d", len(ops), maxOps)
	}
	return ops, nil
}

// parseOp reads name[.sensor][:arg][@pos].
func parseOp(s string) (Op, error) {
	op := Op{Sensor: -1, At: -1}
	if body, at, ok := strings.Cut(s, "@"); ok {
		n, err := intIn("@", at, 0, 1000)
		if err != nil {
			return op, fmt.Errorf("op %q: %v", s, err)
		}
		op.At, s = n, body
	}
	name, arg, hasArg := strings.Cut(s, ":")
	if head, idx, ok := strings.Cut(name, "."); ok {
		n, err := intIn(".", idx, 0, 3)
		if err != nil {
			return op, fmt.Errorf("op %q: %v", s, err)
		}
		op.Sensor, name = n, head
	}
	if _, err := oneOf("op", name, opNames); err != nil {
		return op, err
	}
	op.Name = name
	switch name {
	case "crash":
		stage, kind, _ := strings.Cut(arg, ":")
		if _, err := oneOf("crash", stage, stages); err != nil {
			return op, err
		}
		if kind != "" && kind != "compact" {
			return op, fmt.Errorf("op %q: a crash hits a delta or a compact commit", s)
		}
		op.Stage, op.Compact = stage, kind == "compact"
	case "restore", "fresh":
		if hasArg {
			o, err := parseOrder(arg)
			if err != nil {
				return op, err
			}
			op.Order = &o
		}
	default:
		if hasArg {
			return op, fmt.Errorf("op %q takes no argument", s)
		}
	}
	return op, nil
}

func (o Order) String() string {
	switch o.Kind {
	case "chunk":
		return fmt.Sprintf("chunk:%d:%d", o.K, o.M)
	case "perm":
		return fmt.Sprintf("perm:%d", o.Seed)
	}
	return o.Kind
}

func (op Op) String() string {
	s := op.Name
	if op.Sensor >= 0 {
		s += "." + strconv.Itoa(op.Sensor)
	}
	switch {
	case op.Name == "crash":
		s += ":" + op.Stage
		if op.Compact {
			s += ":compact"
		}
	case op.Order != nil:
		s += ":" + op.Order.String()
	}
	if op.At >= 0 {
		s += "@" + strconv.Itoa(op.At)
	}
	return s
}

// Crashes reports whether p fails a commit.
func (p Program) Crashes() bool {
	for _, op := range p.Ops {
		if op.Name == "crash" {
			return true
		}
	}
	return false
}

// String is the program's canonical line: Parse(p.String()) is p.
func (p Program) String() string {
	ops := make([]string, 0, len(p.Ops)+1)
	for _, op := range p.Ops {
		ops = append(ops, op.String())
	}
	ops = append(ops, "end")
	return fmt.Sprintf("seed=%d scale=%d spec=%s sensors=%d split=%s store=%s ret=%d policy=%s batch=%d order=%s sync=%s ops=%s",
		p.Seed, p.Scale, p.Spec, p.Sensors, p.Split, p.Store, p.Ret, p.Policy, p.Batch, p.Order, p.Sync, strings.Join(ops, ","))
}
