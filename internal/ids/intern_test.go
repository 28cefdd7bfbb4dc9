package ids

import (
	"fmt"
	"testing"
	"unsafe"
)

func TestInternerReusesAndBounds(t *testing.T) {
	in := NewInterner()
	a := in.Intern([]byte("s01"))
	if b := in.Intern([]byte("s01")); b != a || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("second conversion of the same bytes built a new string")
	}
	if got := in.Intern(nil); got != "" {
		t.Fatalf("empty bytes interned as %q", got)
	}
	var none *Interner
	if got := none.Intern([]byte("x")); got != "x" {
		t.Fatalf("nil interner converted to %q", got)
	}
	for i := 0; i < internCap+10; i++ {
		in.Intern([]byte(fmt.Sprint("p", i)))
	}
	if len(in.m) > internCap {
		t.Fatalf("table grew to %d entries, cap %d", len(in.m), internCap)
	}
	if avg := testing.AllocsPerRun(100, func() { in.Intern([]byte("s01")) }); avg != 0 {
		t.Fatalf("interned lookup allocates %.1f", avg)
	}
}
