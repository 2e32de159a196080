// Package arena cuts many small, long-lived strings and string lists from
// shared blocks, so that one allocation serves hundreds of values instead
// of one each and the garbage collector has fewer objects to mark.
//
// A block stays reachable while any value cut from it is, so an arena
// suits values that live about as long as each other — a generated
// dataset's addresses, UIDs and certificate fields — and not a mix of
// short- and long-lived ones. An Arena is not safe for concurrent use.
package arena

import "unsafe"

// Block sizes: a string block holds the strings of ~100 certificates, a
// list block the SAN lists of ~1 000.
const (
	strBlock  = 16 << 10
	listBlock = 1024
)

// Strings is a string and string-list arena. The zero value is ready to
// use; a nil *Strings allocates every value on its own.
type Strings struct {
	block []byte
	lists []string
}

// Cut returns a copy of b cut from the arena. A value too long to share
// a block gets a string of its own.
func (a *Strings) Cut(b []byte) string {
	if a == nil || len(b) == 0 || len(b) > strBlock/8 {
		return string(b)
	}
	if cap(a.block)-len(a.block) < len(b) {
		a.block = make([]byte, 0, strBlock)
	}
	start := len(a.block)
	a.block = append(a.block, b...)
	return unsafe.String(&a.block[start], len(b))
}

// List returns an empty list with room for n strings, cut from the
// arena: appending up to n strings to it allocates nothing.
func (a *Strings) List(n int) []string {
	if a == nil || n > listBlock/8 {
		return make([]string, 0, n)
	}
	if cap(a.lists)-len(a.lists) < n {
		a.lists = make([]string, 0, listBlock)
	}
	start := len(a.lists)
	a.lists = a.lists[:start+n]
	return a.lists[start : start : start+n]
}
