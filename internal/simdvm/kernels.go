package simdvm

// Elementwise kernels. Every elementwise op on grids, vectors and masks —
// dense or sparse — runs one of these over a chunk of stored elements.
// The operator is switched on once per chunk, so the inner loops are plain
// slice loops with no call per element.

// arith names an int32 operator.
type arith uint8

const (
	opMin arith = iota
	opMax
	opAdd
	opSub
	opMul
	opMod
)

// rel names an int32 comparison.
type rel uint8

const (
	opEq rel = iota
	opNe
	opLt
	opLe
)

// logic names a boolean connective.
type logic uint8

const (
	opAnd logic = iota
	opOr
	opAndNot
)

// arithVV sets out[i] = x[i] op y[i].
func arithVV(op arith, out, x, y []int32) {
	out, y = out[:len(x)], y[:len(x)]
	switch op {
	case opMin:
		for i, a := range x {
			out[i] = min(a, y[i])
		}
	case opMax:
		for i, a := range x {
			out[i] = max(a, y[i])
		}
	case opAdd:
		for i, a := range x {
			out[i] = a + y[i]
		}
	case opSub:
		for i, a := range x {
			out[i] = a - y[i]
		}
	default:
		panic("simdvm: arithVV: unsupported operator")
	}
}

// arithVC sets out[i] = x[i] op c.
func arithVC(op arith, out, x []int32, c int32) {
	out = out[:len(x)]
	switch op {
	case opMax:
		for i, a := range x {
			out[i] = max(a, c)
		}
	case opAdd:
		for i, a := range x {
			out[i] = a + c
		}
	case opMul:
		for i, a := range x {
			out[i] = a * c
		}
	case opMod:
		for i, a := range x {
			out[i] = a % c
		}
	default:
		panic("simdvm: arithVC: unsupported operator")
	}
}

// cmpVV sets out[i] = x[i] op y[i].
func cmpVV(op rel, out []bool, x, y []int32) {
	out, y = out[:len(x)], y[:len(x)]
	switch op {
	case opEq:
		for i, a := range x {
			out[i] = a == y[i]
		}
	case opNe:
		for i, a := range x {
			out[i] = a != y[i]
		}
	case opLt:
		for i, a := range x {
			out[i] = a < y[i]
		}
	default:
		panic("simdvm: cmpVV: unsupported comparison")
	}
}

// cmpVC sets out[i] = x[i] op c.
func cmpVC(op rel, out []bool, x []int32, c int32) {
	out = out[:len(x)]
	switch op {
	case opEq:
		for i, a := range x {
			out[i] = a == c
		}
	case opNe:
		for i, a := range x {
			out[i] = a != c
		}
	case opLe:
		for i, a := range x {
			out[i] = a <= c
		}
	default:
		panic("simdvm: cmpVC: unsupported comparison")
	}
}

// logicVV sets out[i] = x[i] op y[i].
func logicVV(op logic, out, x, y []bool) {
	out, y = out[:len(x)], y[:len(x)]
	switch op {
	case opAnd:
		for i, a := range x {
			out[i] = a && y[i]
		}
	case opOr:
		for i, a := range x {
			out[i] = a || y[i]
		}
	case opAndNot:
		for i, a := range x {
			out[i] = a && !y[i]
		}
	default:
		panic("simdvm: logicVV: unsupported connective")
	}
}

// fill sets every element of out to c.
func fill[T int32 | bool](out []T, c T) {
	for i := range out {
		out[i] = c
	}
}

// fillWhere sets out[i] = c where mask[i].
func fillWhere(out []int32, mask []bool, c int32) {
	mask = mask[:len(out)]
	for i, set := range mask {
		if set {
			out[i] = c
		}
	}
}

// assignWhere sets out[i] = src[i] where mask[i].
func assignWhere(out []int32, mask []bool, src []int32) {
	mask, src = mask[:len(out)], src[:len(out)]
	for i, set := range mask {
		if set {
			out[i] = src[i]
		}
	}
}

// not sets out[i] = !x[i].
func not(out, x []bool) {
	out = out[:len(x)]
	for i, a := range x {
		out[i] = !a
	}
}

// count returns the number of set elements of x.
func count(x []bool) int {
	n := 0
	for _, a := range x {
		if a {
			n++
		}
	}
	return n
}
