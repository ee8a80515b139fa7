package mapfix

import (
	"fmt"
	"slices"
	"sort"
)

// Emit leaks iteration order straight into output bytes.
func Emit(m map[string]int) {
	for k, v := range m { // want "range over map"
		fmt.Println(k, v)
	}
}

// Keys collects then sorts — the blessed httpx header pattern.
func Keys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// KeysViaSlices sorts through the slices package instead.
func KeysViaSlices(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// KeysUnsorted collects but never sorts — order escapes.
func KeysUnsorted(m map[string]int) []string {
	var ks []string
	for k := range m { // want "range over map"
		ks = append(ks, k)
	}
	return ks
}

// Total folds commutatively into an integer.
func Total(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// Live counts under a call-free guard (the tcp.Host.ConnCount shape).
func Live(m map[string]int, floor int) int {
	n := 0
	for _, v := range m {
		if v > floor {
			n++
		}
	}
	return n
}

// Merge folds one count map into another.
func Merge(dst, src map[int]int64) {
	for k, c := range src {
		dst[k] += c
	}
}

// SumFloats must not pass: float addition is not associative, so the
// visit order changes the low bits.
func SumFloats(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want "range over map"
		s += v
	}
	return s
}

// CallInBody must not pass even though it accumulates: the call could
// observe order.
func CallInBody(m map[string]int) int {
	n := 0
	for _, v := range m { // want "range over map"
		n += weigh(v)
	}
	return n
}

// Annotated carries the escape hatch with its commutativity argument.
func Annotated(m map[string]int) int {
	best := 0
	//vlint:unordered max of ints is commutative; ties produce the same value
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// MissingReason has the marker but no argument — still flagged.
func MissingReason(m map[string]int) {
	//vlint:unordered
	for k := range m { // want "needs a reason"
		fmt.Println(k)
	}
}

// Inline proves loops inside function literals are walked too.
var Inline = func(m map[int]int) {
	for k := range m { // want "range over map"
		fmt.Println(k)
	}
}

// OverSlice is out of the rule entirely.
func OverSlice(xs []int) {
	for i, x := range xs {
		fmt.Println(i, x)
	}
}

func weigh(v int) int { return v * 2 }
