package ids

// Interner maps identifier bytes read off the wire — process, group and
// method names that repeat on every message — to strings it has built
// before. A hit is a map probe on the frame's bytes, which Go compiles
// without allocating, so a steady-state decoder converts nothing. One
// Interner belongs to one decoding goroutine. The nil *Interner interns
// nothing and converts every call afresh (one-shot decodes). The table
// stops growing at internCap entries, so a peer streaming unique names
// cannot grow it without bound.
type Interner struct {
	m map[string]string
}

const internCap = 4096

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{m: make(map[string]string)} }

// Intern returns b as a string, reusing an earlier conversion.
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if in == nil {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.m) < internCap {
		in.m[s] = s
	}
	return s
}
