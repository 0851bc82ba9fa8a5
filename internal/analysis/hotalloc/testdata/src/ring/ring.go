// Package ring is the hotalloc fixture: a miniature flight-recorder
// ring whose hot paths demonstrate every SV006 finding and every
// sanctioned shape.
package ring

type rec struct{ a, b int }

func logf(format string, args ...interface{}) {}

func sink(interface{}) {}

func takePtr(*rec) {}

// Hot demonstrates the findings.
//
//simvet:hot
func Hot(buf []rec, n int) {
	p := new(rec) // want `heap allocation \(new\)`
	_ = p
	m := make(map[int]int) // want `heap allocation \(make\)`
	_ = m
	grown := append(buf, rec{}) // want `append in //simvet:hot Hot may grow`
	_ = grown
	r := &rec{a: n} // want `address-taken composite literal`
	_ = r
	xs := []int{n} // want `heap allocation \(slice literal\)`
	_ = xs
	logf("event %d", n)          // want `interface boxing \(int argument\)`
	f := func() int { return n } // want `closure allocation`
	_ = f
	sink(interface{}(rec{a: n})) // want `interface boxing \(conversion of ring.rec\)`
}

// CleanHot shows the alloc-free idioms the pass accepts: writing into
// preallocated storage, struct literals that stay on the stack, and
// pointer-shaped values crossing interface boundaries.
//
//simvet:hot
func CleanHot(buf []rec, r *rec, n int) {
	buf[0] = rec{a: n}
	buf[0].b += n
	takePtr(&buf[0])
	sink(r)            // pointer fits the interface word
	sink(nil)          // nil boxes nothing
	logf("forwarding") // no variadic args, nothing to box
}

// Forward passes a ready-made slice through a variadic call: the
// elements were boxed by whoever built the slice, not here.
//
//simvet:hot
func Forward(args ...interface{}) {
	logf("fwd", args...)
}

// Allowed demonstrates the escape hatch for a deliberate allocation.
//
//simvet:hot
func Allowed() *rec {
	//simvet:allow SV006 one record per session, not per event
	return new(rec)
}

// cold is unmarked: the pass ignores it entirely.
func cold() *rec {
	return &rec{}
}
