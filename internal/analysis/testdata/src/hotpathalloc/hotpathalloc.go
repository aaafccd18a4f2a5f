// Fixture for the hotpathalloc analyzer: every construct it must flag,
// and every reuse pattern it must accept.
package hotpathalloc

import "errors"

type buf struct {
	out      []int
	inflight map[int][]int
}

func idle() {}

func sink(v any) {}

//glitchsim:hotpath
func badConstructs(n int) {
	m := map[int]int{} // want `map literal allocates in hotpath function badConstructs`
	_ = m
	s := []int{1, 2, 3} // want `slice literal allocates in hotpath function badConstructs`
	_ = s
	p := &buf{} // want `&composite literal allocates in hotpath function badConstructs`
	_ = p
	q := new(buf) // want `new allocates in hotpath function badConstructs`
	_ = q
	mm := make(map[int]int) // want `make\(map\) allocates in hotpath function badConstructs`
	_ = mm
	ch := make(chan int) // want `make\(chan\) allocates in hotpath function badConstructs`
	_ = ch
	sl := make([]int, n) // want `make without explicit capacity allocates in hotpath function badConstructs`
	_ = sl
	err := errors.New("boom") // want `call to errors\.New allocates in hotpath function badConstructs`
	_ = err
	f := func() {} // want `closure allocates in hotpath function badConstructs`
	f()
	go idle() // want `go statement allocates in hotpath function badConstructs`
}

//glitchsim:hotpath
func badAppend(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want `append into a fresh slice allocates in hotpath function badAppend`
	}
	return out
}

//glitchsim:hotpath
func badBox(n int) any {
	var x any
	x = n // want `assignment boxes int into interface in hotpath function badBox`
	_ = x
	var y any = n // want `declaration boxes int into interface in hotpath function badBox`
	_ = y
	sink(n)  // want `argument boxes int into interface in hotpath function badBox`
	return n // want `return boxes int into interface in hotpath function badBox`
}

//glitchsim:hotpath
func badConv(b []byte) string {
	return string(b) // want `string conversion allocates in hotpath function badConv`
}

// typeParams converts to a type parameter, which stands for a concrete
// type and never boxes, and passes a value of one as an interface,
// which boxes like a concrete value.
//
//glitchsim:hotpath
func typeParams[I ~uint16 | ~int32](xs []I) I {
	none := ^I(0)
	n := I(len(xs))
	sink(n) // want `argument boxes I into interface in hotpath function typeParams`
	return none + n
}

// good exercises the sanctioned patterns: reslice-of-field,
// preallocated-cap make, append chains rooted in parameters, and
// panic arguments (exempt — a panic is never steady-state cost).
//
//glitchsim:hotpath
func (b *buf) good(vals []int, scratch *[]int) {
	out := b.out[:0]
	for _, v := range vals {
		out = append(out, v)
	}
	b.out = out
	tmp := make([]int, 0, 8)
	tmp = append(tmp, 1)
	_ = tmp
	list := b.inflight[3]
	kept := list[:0]
	kept = append(kept, 1)
	b.inflight[3] = kept
	ins := (*scratch)[:0]
	ins = append(ins, 2)
	*scratch = ins
	var iface any = nil // untyped nil into interface: no box
	_ = iface
	if len(vals) > 1<<20 {
		panic(errors.New("too many")) // panic argument: exempt
	}
}

// coldAlloc is not annotated: allocations are fine here.
func coldAlloc(n int) []int {
	out := []int{}
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
