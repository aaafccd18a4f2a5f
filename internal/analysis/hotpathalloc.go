package analysis

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc reports heap-allocating constructs inside functions
// annotated //glitchsim:hotpath. The kernels' zero
// steady-state-allocation guarantee is pinned dynamically by
// internal/sim's alloc tests; this analyzer proves the same property
// structurally, so a regression is a compile-time finding instead of a
// test that has to exercise the right path.
//
// Flagged constructs:
//
//   - map and slice composite literals, and &T{} pointer literals;
//   - make of maps, channels, and slices without an explicit capacity
//     (a 3-argument make is the sanctioned preallocated-cap pattern:
//     its one allocation is visible right there);
//   - new(T);
//   - append whose destination is not a reused buffer (a struct field,
//     a parameter, a reslice of either, or a local with an explicit
//     capacity) — appends into fresh locals grow a new backing array
//     every call;
//   - calls into fmt, log and errors (formatting machinery allocates);
//   - string <-> []byte/[]rune conversions;
//   - closures and go statements;
//   - implicit interface boxing: assigning, passing or returning a
//     concrete value where an interface is expected.
//
// Arguments of panic calls are exempt: a panic unwinds the call, so
// its formatting is never steady-state cost.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid heap-allocating constructs in //glitchsim:hotpath functions",
	Run:  runHotPathAlloc,
}

// allocPkgs are packages whose entire API is considered allocating.
var allocPkgs = map[string]bool{"fmt": true, "log": true, "errors": true}

func runHotPathAlloc(pass *Pass) error {
	for _, fn := range hotPathFuncs(pass) {
		if fn.Body == nil {
			continue
		}
		(&hotPathChecker{pass: pass, fn: fn}).check(fn.Body)
	}
	return nil
}

type hotPathChecker struct {
	pass *Pass
	fn   *ast.FuncDecl
}

func (c *hotPathChecker) check(body ast.Node) {
	info := c.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				c.pass.Reportf(n.Pos(), "map literal allocates in hotpath function %s", c.fn.Name.Name)
			case *types.Slice:
				c.pass.Reportf(n.Pos(), "slice literal allocates in hotpath function %s", c.fn.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.pass.Reportf(n.Pos(), "&composite literal allocates in hotpath function %s", c.fn.Name.Name)
				}
			}
		case *ast.FuncLit:
			c.pass.Reportf(n.Pos(), "closure allocates in hotpath function %s", c.fn.Name.Name)
			return false
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "go statement allocates in hotpath function %s", c.fn.Name.Name)
		case *ast.AssignStmt:
			c.checkAssignBoxing(n)
		case *ast.ValueSpec:
			c.checkValueSpecBoxing(n)
		case *ast.ReturnStmt:
			c.checkReturnBoxing(n)
		case *ast.CallExpr:
			return c.checkCall(n)
		}
		return true
	})
}

// checkCall handles builtins, allocating packages, conversions and
// call-argument boxing. It returns false when the node's children must
// not be visited (panic arguments are exempt).
func (c *hotPathChecker) checkCall(call *ast.CallExpr) bool {
	info := c.pass.TypesInfo
	name := c.fn.Name.Name

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Type conversion. string <-> []byte/[]rune copies; conversion
		// to an interface type boxes.
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if isStringBytesConv(to, from) {
				c.pass.Reportf(call.Pos(), "string conversion allocates in hotpath function %s", name)
			}
			if boxes(to, from) {
				c.pass.Reportf(call.Pos(), "conversion to interface %s boxes in hotpath function %s", types.TypeString(to, nil), name)
			}
		}
		return true
	}

	switch builtinName(info, call) {
	case "panic":
		return false // unwinds: not steady-state cost
	case "new":
		c.pass.Reportf(call.Pos(), "new allocates in hotpath function %s", name)
		return true
	case "make":
		switch info.TypeOf(call).Underlying().(type) {
		case *types.Map:
			c.pass.Reportf(call.Pos(), "make(map) allocates in hotpath function %s", name)
		case *types.Chan:
			c.pass.Reportf(call.Pos(), "make(chan) allocates in hotpath function %s", name)
		case *types.Slice:
			if len(call.Args) < 3 {
				c.pass.Reportf(call.Pos(), "make without explicit capacity allocates in hotpath function %s", name)
			}
		}
		return true
	case "append":
		if len(call.Args) > 0 && !c.reusedBuffer(call.Args[0], map[types.Object]bool{}) {
			c.pass.Reportf(call.Pos(), "append into a fresh slice allocates in hotpath function %s (reuse a field or preallocated buffer)", name)
		}
		return true
	}

	if pkg, fname := calleePkgPath(info, call); allocPkgs[pkg] {
		c.pass.Reportf(call.Pos(), "call to %s.%s allocates in hotpath function %s", pkg, fname, name)
	}
	c.checkCallArgBoxing(call)
	return true
}

// reusedBuffer reports whether an append destination is a reused
// buffer rather than a fresh per-call slice: rooted at a struct field
// or package variable (selector), a parameter or receiver, an element,
// reslice or dereference of such, a make with explicit capacity, or a
// local whose every (non-self-append) assignment is rooted likewise.
func (c *hotPathChecker) reusedBuffer(expr ast.Expr, seen map[types.Object]bool) bool {
	info := c.pass.TypesInfo
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return true // field or package-level buffer: persists across calls
	case *ast.IndexExpr:
		return c.reusedBuffer(e.X, seen)
	case *ast.SliceExpr:
		return c.reusedBuffer(e.X, seen)
	case *ast.StarExpr:
		return c.reusedBuffer(e.X, seen)
	case *ast.CallExpr:
		if builtinName(info, e) == "make" && len(e.Args) == 3 {
			return true // preallocated cap: the make is reported, appends within it not
		}
		if builtinName(info, e) == "append" && len(e.Args) > 0 {
			return c.reusedBuffer(e.Args[0], seen)
		}
		return false
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return false
		}
		if c.isParam(obj) {
			return true
		}
		if seen[obj] {
			return true // cycle: only self-referential assignments seen
		}
		seen[obj] = true
		return c.localOriginsReused(obj, seen)
	}
	return false
}

// localOriginsReused scans the function body for assignments defining
// obj and reports whether every origin is a reused buffer. A local
// with no defining assignment at all (declared nil, only appended to)
// is fresh.
func (c *hotPathChecker) localOriginsReused(obj types.Object, seen map[types.Object]bool) bool {
	info := c.pass.TypesInfo
	found, allReused := false, true
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				// Multi-value assignment from one expression: treat a
				// matching LHS as an unknown (fresh) origin.
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && info.ObjectOf(id) == obj {
						found, allReused = true, false
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || info.ObjectOf(id) != obj {
					continue
				}
				if selfAppend(info, obj, n.Rhs[i]) {
					continue // x = append(x, ...) does not define the origin
				}
				found = true
				if !c.reusedBuffer(n.Rhs[i], seen) {
					allReused = false
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if info.ObjectOf(name) != obj || i >= len(n.Values) {
					continue
				}
				found = true
				if !c.reusedBuffer(n.Values[i], seen) {
					allReused = false
				}
			}
		}
		return true
	})
	return found && allReused
}

// selfAppend reports whether rhs is append(x, ...) with x resolving to
// obj itself.
func selfAppend(info *types.Info, obj types.Object, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || builtinName(info, call) != "append" || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

// isParam reports whether obj is a parameter or the receiver of the
// checked function.
func (c *hotPathChecker) isParam(obj types.Object) bool {
	info := c.pass.TypesInfo
	match := func(fields *ast.FieldList) bool {
		if fields == nil {
			return false
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if info.ObjectOf(name) == obj {
					return true
				}
			}
		}
		return false
	}
	return match(c.fn.Recv) || match(c.fn.Type.Params)
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// boxes reports whether assigning a value of type from to a slot of
// type to requires an interface allocation: to is an interface, from a
// concrete (non-interface, non-nil) type. A type parameter's underlying
// type is its constraint interface, but it stands for a concrete type
// in every instantiation: converting to one never boxes, and a value of
// one boxes like a concrete value.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if isTypeParam(to) || !types.IsInterface(to.Underlying()) {
		return false
	}
	if !isTypeParam(from) && types.IsInterface(from.Underlying()) {
		return false
	}
	if basic, ok := from.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return true
}

func isTypeParam(t types.Type) bool {
	_, ok := types.Unalias(t).(*types.TypeParam)
	return ok
}

func isStringBytesConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(to) && isByteish(from)) || (isByteish(to) && isStr(from))
}

func (c *hotPathChecker) checkAssignBoxing(n *ast.AssignStmt) {
	info := c.pass.TypesInfo
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		to := info.TypeOf(lhs)
		if n.Tok.String() == ":=" {
			continue // inferred type: never a boxing site
		}
		if boxes(to, info.TypeOf(n.Rhs[i])) {
			c.pass.Reportf(n.Rhs[i].Pos(), "assignment boxes %s into interface in hotpath function %s", types.TypeString(info.TypeOf(n.Rhs[i]), nil), c.fn.Name.Name)
		}
	}
}

func (c *hotPathChecker) checkValueSpecBoxing(n *ast.ValueSpec) {
	info := c.pass.TypesInfo
	if n.Type == nil {
		return
	}
	to := info.TypeOf(n.Type)
	for _, v := range n.Values {
		if boxes(to, info.TypeOf(v)) {
			c.pass.Reportf(v.Pos(), "declaration boxes %s into interface in hotpath function %s", types.TypeString(info.TypeOf(v), nil), c.fn.Name.Name)
		}
	}
}

func (c *hotPathChecker) checkReturnBoxing(n *ast.ReturnStmt) {
	info := c.pass.TypesInfo
	results := c.fn.Type.Results
	if results == nil || len(n.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, f := range results.List {
		t := info.TypeOf(f.Type)
		k := len(f.Names)
		if k == 0 {
			k = 1
		}
		for j := 0; j < k; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(n.Results) != len(resultTypes) {
		return // multi-value return from one call: origins unknown
	}
	for i, r := range n.Results {
		if boxes(resultTypes[i], info.TypeOf(r)) {
			c.pass.Reportf(r.Pos(), "return boxes %s into interface in hotpath function %s", types.TypeString(info.TypeOf(r), nil), c.fn.Name.Name)
		}
	}
}

// checkCallArgBoxing flags concrete values passed where the callee's
// signature expects an interface (including variadic ...any).
func (c *hotPathChecker) checkCallArgBoxing(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var to types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			s, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			to = s.Elem()
		case i < params.Len():
			to = params.At(i).Type()
		default:
			continue
		}
		if boxes(to, info.TypeOf(arg)) {
			c.pass.Reportf(arg.Pos(), "argument boxes %s into interface in hotpath function %s", types.TypeString(info.TypeOf(arg), nil), c.fn.Name.Name)
		}
	}
}
