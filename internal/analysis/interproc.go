// Interprocedural layer: a module-wide call graph over the parsed
// Module, per-function summaries (locks, spawns, exit observation,
// allocation sites, watched-error provenance), and — in ipfacts.go — a
// fixpoint propagator that turns the direct summaries into transitive
// facts. Everything stays syntactic, in the framework's spirit: a
// best-effort type environment (receiver, parameters, inferred locals,
// struct-field index) resolves the common cases, and every resolver
// errs toward silence when an expression is ambiguous.
//
// Resolution ladder for a call expression, most to least precise:
//
//  1. bare ident              → function declared in the same package
//  2. pkg.F                   → import path under the module path
//  3. x.M, x of resolved type → method on that type, module-wide
//  4. x.M, x unresolved       → conservative edges to every module
//     method named M, only when M is declared by a module interface
//     (edges are marked Conservative and may only ever suppress a
//     finding, never create one)
//  5. anything else           → no edge (silence)
package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// RefKind is the coarse shape of a resolved type.
type RefKind int

const (
	// RefNamed is a named type (struct or otherwise) addressable for
	// method lookup.
	RefNamed RefKind = iota
	// RefMap is a map type — possibly a named one, still
	// method-addressable when Name is set.
	RefMap
	// RefChan is a channel type.
	RefChan
)

// TypeRef identifies a resolved type. Module types carry the declaring
// package's RelDir; types outside the module carry "ext:<import
// path>". Unnamed composites (map/chan) may have an empty Dir/Name and
// only a Kind.
type TypeRef struct {
	Dir  string
	Name string
	Kind RefKind
}

const extPrefix = "ext:"

// moduleNamed reports whether the ref is a named type declared in this
// module (and therefore method- and field-addressable).
func (r TypeRef) moduleNamed() bool {
	return r.Name != "" && r.Dir != "" && !strings.HasPrefix(r.Dir, extPrefix)
}

// isMutex reports sync.Mutex / sync.RWMutex.
func (r TypeRef) isMutex() bool {
	return r.Dir == extPrefix+"sync" && (r.Name == "Mutex" || r.Name == "RWMutex")
}

// infallibleRecv lists external receivers whose watched methods are
// documented never to fail (bytes.Buffer, strings.Builder): dropping
// their error result is idiomatic, not a finding.
func infallibleRecv(r TypeRef) bool {
	return (r.Dir == extPrefix+"bytes" && r.Name == "Buffer") ||
		(r.Dir == extPrefix+"strings" && r.Name == "Builder")
}

// FuncID names one function in the call graph: "<relDir>:<Name>" for
// functions, "<relDir>:<Recv>.<Name>" for methods, and "<parent>$<n>"
// for the n-th function literal inside parent.
type FuncID string

// Call is one resolved synchronous call site.
type Call struct {
	Pos    token.Pos
	Callee FuncID
	// Conservative marks interface-fallback edges: the callee is one of
	// several possible targets. Analyzers use conservative edges only
	// to suppress findings, never to create them.
	Conservative bool
	// Held is the sorted set of lock IDs held at the call site.
	Held []string
}

// Spawn is one `go` statement with a resolved target.
type Spawn struct {
	Pos          token.Pos
	Callee       FuncID
	Conservative bool
}

// LockEvent is one acquisition or release of a resolvable lock.
type LockEvent struct {
	// Lock is the lock's stable ID: "<dir>.<Type>.<field>" for struct
	// mutex fields ("<Type>.<field>" in the module root) and
	// "<dir>.<var>" for package-level mutex variables.
	Lock string
	// Op is Lock, RLock, Unlock or RUnlock.
	Op  string
	Pos token.Pos
	// Held is the sorted set of other locks held when this one was
	// acquired (empty for releases).
	Held []string
}

// HeldEvent is a blocking operation (channel send, outbound HTTP call)
// performed while holding at least one lock.
type HeldEvent struct {
	Pos  token.Pos
	Held []string
	// What describes the operation ("channel send", "http request").
	What string
}

// AllocSite is one escape-relevant allocation in a function body.
type AllocSite struct {
	Pos token.Pos
	// What says why the site allocates ("closure allocation", "make
	// allocates", …).
	What string
}

// FuncNode is one function (declaration or literal) in the call graph,
// with its direct summary and — after the fixpoint — transitive facts.
type FuncNode struct {
	ID      FuncID
	Pkg     *Package
	File    *File
	Decl    *ast.FuncDecl // nil for literals
	Lit     *ast.FuncLit  // nil for declarations
	Display string        // human-readable name ("Safe.AddTree", "Puller.Run$1")
	Pos     token.Pos

	// HotPath marks functions tagged //lint:hotpath in their doc
	// comment.
	HotPath bool
	// ReturnsError reports an `error` last result in the signature.
	ReturnsError bool

	// Direct summary, filled by the walker.
	Calls  []Call
	Spawns []Spawn
	Locks  []LockEvent
	Sends  []HeldEvent
	Allocs []AllocSite
	// ObservesExit: the body receives from a ctx.Done()/stop/done
	// channel, ranges over a channel, performs a two-value receive, or
	// calls Wait — i.e. it participates in a shutdown protocol.
	ObservesExit bool
	// LoopsForever: the body contains a `for` with no condition and no
	// reachable return/break out of it.
	LoopsForever bool
	// DirectWatched: the body calls a watched IO/serialization method
	// (MarshalBinary, Write, …) on a resolved, fallible receiver.
	DirectWatched bool

	// Transitive facts, filled by the fixpoint (ipfacts.go).
	TransAcquires     map[string]bool
	TransObservesExit bool
	TransLoopsForever bool
	TransAllocates    bool
	// TransWatched: the function returns an error that (transitively)
	// originates at a watched IO/serialization site, so callers must
	// not drop it.
	TransWatched bool

	env map[string]TypeRef
}

// Body returns the function's body block (nil for bodyless decls).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// watchedErrorMethods are the method names whose error results errflow
// tracks: serialization and IO sinks where a silently dropped error
// corrupts or loses data.
var watchedErrorMethods = map[string]bool{
	"MarshalBinary": true,
	"MarshalText":   true,
	"Write":         true,
	"WriteString":   true,
	"WriteTo":       true,
	"Flush":         true,
	"Encode":        true,
}

// stopChanRE matches channel names that by convention carry shutdown
// signals; receiving from one counts as observing an exit path.
var stopChanRE = regexp.MustCompile(`(?i)(stop|done|quit|exit|close|cancel)`)

// maxConservativeFanout bounds interface-fallback resolution: a method
// name with more module implementations than this is too ambiguous to
// say anything about, even conservatively.
const maxConservativeFanout = 8

const hotPathDirective = "//lint:hotpath"

// typeKey indexes declared types and struct layouts by package dir and
// type name.
type typeKey struct {
	dir, name string
}

// ipIndex is the module-wide symbol index the graph is built over.
type ipIndex struct {
	m *Module
	// imports caches per-file local-name → import-path maps.
	imports map[*File]map[string]string
	// declared maps every type declared in the module to its ref
	// (carrying the underlying kind for maps and channels).
	declared map[typeKey]TypeRef
	// structs maps a struct type to its named fields' resolved types.
	structs map[typeKey]map[string]TypeRef
	// pkgMutexVars records package-level sync.Mutex/RWMutex variables.
	pkgMutexVars map[string]map[string]bool
	// funcs is the node table, keyed by FuncID.
	funcs map[FuncID]*FuncNode
	// methodsByName lists module methods per bare name, in declaration
	// order — the candidate pool for conservative interface fallback.
	methodsByName map[string][]FuncID
	// ifaceMethods are method names declared by module interface types;
	// only these get conservative fallback edges.
	ifaceMethods map[string]bool
}

// buildInterproc constructs the index, the nodes, the summaries and
// the fixpoint facts for one module.
func buildInterproc(m *Module) *Interproc {
	ix := &ipIndex{
		m:             m,
		imports:       map[*File]map[string]string{},
		declared:      map[typeKey]TypeRef{},
		structs:       map[typeKey]map[string]TypeRef{},
		pkgMutexVars:  map[string]map[string]bool{},
		funcs:         map[FuncID]*FuncNode{},
		methodsByName: map[string][]FuncID{},
		ifaceMethods:  map[string]bool{},
	}
	ix.indexTypes()
	ix.indexFuncs()
	for _, n := range ix.declNodesInOrder() {
		ix.buildEnvAndWalk(n)
	}
	ip := &Interproc{Module: m, Funcs: ix.funcs, ix: ix}
	ip.finish()
	return ip
}

// declNodesInOrder returns the declaration nodes in deterministic
// source order (packages and files are already sorted by Load).
func (ix *ipIndex) declNodesInOrder() []*FuncNode {
	var out []*FuncNode
	for _, p := range ix.m.Packages {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if n := ix.funcs[declFuncID(p, fd)]; n != nil && n.Decl == fd {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// declFuncID computes the FuncID of a declaration.
func declFuncID(p *Package, fd *ast.FuncDecl) FuncID {
	name := fd.Name.Name
	if r := recvBaseType(fd); r != "" {
		name = r + "." + name
	}
	return FuncID(p.RelDir + ":" + name)
}

// recvBaseType is the receiver's base type name, "" for functions.
func recvBaseType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// indexTypes records declared types, struct field layouts, interface
// method names and package-level mutex variables across the module
// (test files excluded, matching the graph itself).
func (ix *ipIndex) indexTypes() {
	for _, p := range ix.m.Packages {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, d := range f.AST.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						ix.indexTypeSpec(p, f, s)
					case *ast.ValueSpec:
						if gd.Tok != token.VAR || s.Type == nil {
							continue
						}
						if ref, ok := ix.resolveTypeExpr(f, p, s.Type); ok && ref.isMutex() {
							for _, name := range s.Names {
								mv := ix.pkgMutexVars[p.RelDir]
								if mv == nil {
									mv = map[string]bool{}
									ix.pkgMutexVars[p.RelDir] = mv
								}
								mv[name.Name] = true
							}
						}
					}
				}
			}
		}
	}
}

func (ix *ipIndex) indexTypeSpec(p *Package, f *File, ts *ast.TypeSpec) {
	key := typeKey{p.RelDir, ts.Name.Name}
	switch t := ts.Type.(type) {
	case *ast.StructType:
		ix.declared[key] = TypeRef{Dir: p.RelDir, Name: ts.Name.Name}
		fields := map[string]TypeRef{}
		for _, field := range t.Fields.List {
			ref, ok := ix.resolveTypeExpr(f, p, field.Type)
			if !ok {
				continue
			}
			for _, name := range field.Names {
				fields[name.Name] = ref
			}
		}
		ix.structs[key] = fields
	case *ast.MapType:
		ix.declared[key] = TypeRef{Dir: p.RelDir, Name: ts.Name.Name, Kind: RefMap}
	case *ast.ChanType:
		ix.declared[key] = TypeRef{Dir: p.RelDir, Name: ts.Name.Name, Kind: RefChan}
	case *ast.InterfaceType:
		// Interface-typed values stay unresolved at use sites; only the
		// declared method names feed the conservative fallback.
		for _, m := range t.Methods.List {
			for _, name := range m.Names {
				ix.ifaceMethods[name.Name] = true
			}
		}
	default:
		ix.declared[key] = TypeRef{Dir: p.RelDir, Name: ts.Name.Name}
	}
}

// indexFuncs creates a FuncNode per function declaration.
func (ix *ipIndex) indexFuncs() {
	for _, p := range ix.m.Packages {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				id := declFuncID(p, fd)
				display := fd.Name.Name
				if r := recvBaseType(fd); r != "" {
					display = r + "." + fd.Name.Name
				}
				n := &FuncNode{
					ID:           id,
					Pkg:          p,
					File:         f,
					Decl:         fd,
					Display:      display,
					Pos:          fd.Pos(),
					HotPath:      hasHotPathTag(fd.Doc),
					ReturnsError: lastResultIsError(fd.Type),
					env:          map[string]TypeRef{},
				}
				ix.funcs[id] = n
				if r := recvBaseType(fd); r != "" {
					ix.methodsByName[fd.Name.Name] = append(ix.methodsByName[fd.Name.Name], id)
				}
			}
		}
	}
}

// hasHotPathTag reports a //lint:hotpath line in a doc comment.
func hasHotPathTag(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		t := strings.TrimSpace(c.Text)
		if t == hotPathDirective || strings.HasPrefix(t, hotPathDirective+" ") {
			return true
		}
	}
	return false
}

// lastResultIsError reports a trailing `error` result.
func lastResultIsError(ft *ast.FuncType) bool {
	if ft == nil || ft.Results == nil || len(ft.Results.List) == 0 {
		return false
	}
	last := ft.Results.List[len(ft.Results.List)-1]
	id, ok := last.Type.(*ast.Ident)
	return ok && id.Name == "error"
}

// importsOf returns the file's local-name → import-path map.
func (ix *ipIndex) importsOf(f *File) map[string]string {
	if m, ok := ix.imports[f]; ok {
		return m
	}
	m := map[string]string{}
	for _, imp := range f.AST.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else {
			parts := strings.Split(path, "/")
			name = parts[len(parts)-1]
			if len(parts) > 1 && len(name) > 1 && name[0] == 'v' && name[1] >= '0' && name[1] <= '9' {
				name = parts[len(parts)-2]
			}
		}
		if name != "_" && name != "." {
			m[name] = path
		}
	}
	ix.imports[f] = m
	return m
}

// dirForImport maps an import path to a module-relative directory when
// the path is inside this module.
func (ix *ipIndex) dirForImport(path string) (string, bool) {
	mp := ix.m.Path
	if mp == "" {
		return "", false
	}
	if path == mp {
		return ".", true
	}
	if strings.HasPrefix(path, mp+"/") {
		return path[len(mp)+1:], true
	}
	return "", false
}

// resolveTypeExpr resolves a type expression appearing in file f of
// package p to a TypeRef. Unresolvable shapes (interfaces, funcs,
// builtins, generics) return false.
func (ix *ipIndex) resolveTypeExpr(f *File, p *Package, e ast.Expr) (TypeRef, bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return ix.resolveTypeExpr(f, p, x.X)
	case *ast.StarExpr:
		return ix.resolveTypeExpr(f, p, x.X)
	case *ast.Ident:
		if ref, ok := ix.declared[typeKey{p.RelDir, x.Name}]; ok {
			return ref, true
		}
		return TypeRef{}, false
	case *ast.SelectorExpr:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return TypeRef{}, false
		}
		path, ok := ix.importsOf(f)[base.Name]
		if !ok {
			return TypeRef{}, false
		}
		if dir, ok := ix.dirForImport(path); ok {
			if ref, ok := ix.declared[typeKey{dir, x.Sel.Name}]; ok {
				return ref, true
			}
			return TypeRef{Dir: dir, Name: x.Sel.Name}, true
		}
		return TypeRef{Dir: extPrefix + path, Name: x.Sel.Name}, true
	case *ast.MapType:
		return TypeRef{Kind: RefMap}, true
	case *ast.ChanType:
		return TypeRef{Kind: RefChan}, true
	}
	return TypeRef{}, false
}

// fieldType looks up a named field's resolved type on a module struct.
func (ix *ipIndex) fieldType(owner TypeRef, field string) (TypeRef, bool) {
	fields, ok := ix.structs[typeKey{owner.Dir, owner.Name}]
	if !ok {
		return TypeRef{}, false
	}
	ref, ok := fields[field]
	return ref, ok
}

// resolveValue resolves a value expression to the TypeRef of its type,
// through the function's environment and the struct-field index (field
// chains like s.pc.mu resolve link by link).
func (ix *ipIndex) resolveValue(n *FuncNode, e ast.Expr) (TypeRef, bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return ix.resolveValue(n, x.X)
	case *ast.StarExpr:
		return ix.resolveValue(n, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return ix.resolveValue(n, x.X)
		}
	case *ast.Ident:
		ref, ok := n.env[x.Name]
		return ref, ok
	case *ast.SelectorExpr:
		base, ok := ix.resolveValue(n, x.X)
		if !ok || !base.moduleNamed() {
			return TypeRef{}, false
		}
		return ix.fieldType(base, x.Sel.Name)
	case *ast.CompositeLit:
		if x.Type != nil {
			return ix.resolveTypeExpr(n.File, n.Pkg, x.Type)
		}
	}
	return TypeRef{}, false
}

// classifyFieldList enters a field list (receiver, params, results)
// into the node's environment.
func (ix *ipIndex) classifyFieldList(n *FuncNode, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		ref, ok := ix.resolveTypeExpr(n.File, n.Pkg, field.Type)
		if !ok {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				n.env[name.Name] = ref
			}
		}
	}
}

// inferRHS classifies the type of an assignment's right-hand side:
// composite literals, make/new, same-env aliases, type assertions, and
// the NewFoo constructor convention (pkg.NewEncoder → pkg.Encoder).
func (ix *ipIndex) inferRHS(n *FuncNode, rhs ast.Expr) (TypeRef, bool) {
	switch x := rhs.(type) {
	case *ast.ParenExpr:
		return ix.inferRHS(n, x.X)
	case *ast.CompositeLit:
		if x.Type != nil {
			return ix.resolveTypeExpr(n.File, n.Pkg, x.Type)
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := x.X.(*ast.CompositeLit); ok && cl.Type != nil {
				return ix.resolveTypeExpr(n.File, n.Pkg, cl.Type)
			}
		}
	case *ast.Ident:
		ref, ok := n.env[x.Name]
		return ref, ok
	case *ast.TypeAssertExpr:
		if x.Type != nil {
			return ix.resolveTypeExpr(n.File, n.Pkg, x.Type)
		}
	case *ast.CallExpr:
		switch f := unparen(x.Fun).(type) {
		case *ast.Ident:
			switch f.Name {
			case "make", "new":
				if len(x.Args) > 0 {
					return ix.resolveTypeExpr(n.File, n.Pkg, x.Args[0])
				}
			default:
				if t, ok := ctorType(f.Name); ok {
					if ref, ok := ix.declared[typeKey{n.Pkg.RelDir, t}]; ok {
						return ref, true
					}
				}
			}
		case *ast.SelectorExpr:
			base, ok := f.X.(*ast.Ident)
			if !ok {
				break
			}
			path, ok := ix.importsOf(n.File)[base.Name]
			if !ok {
				break
			}
			t, ok := ctorType(f.Sel.Name)
			if !ok {
				break
			}
			if dir, ok := ix.dirForImport(path); ok {
				if ref, ok := ix.declared[typeKey{dir, t}]; ok {
					return ref, true
				}
				return TypeRef{}, false
			}
			return TypeRef{Dir: extPrefix + path, Name: t}, true
		}
	}
	return TypeRef{}, false
}

// ctorType applies the NewFoo → Foo constructor convention.
func ctorType(fn string) (string, bool) {
	if !strings.HasPrefix(fn, "New") || len(fn) == 3 {
		return "", false
	}
	rest := fn[3:]
	if rest[0] < 'A' || rest[0] > 'Z' {
		return "", false
	}
	return rest, true
}

// inferLocals performs one flow-insensitive pass over a body, entering
// classifiable locals into the environment. Nested function literals
// are skipped — their locals belong to their own node.
func (ix *ipIndex) inferLocals(n *FuncNode, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if ref, ok := ix.inferRHS(n, x.Rhs[i]); ok {
					n.env[id.Name] = ref
				}
			}
		case *ast.DeclStmt:
			gd, ok := x.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if vs.Type != nil {
					if ref, ok := ix.resolveTypeExpr(n.File, n.Pkg, vs.Type); ok {
						for _, name := range vs.Names {
							if name.Name != "_" {
								n.env[name.Name] = ref
							}
						}
					}
					continue
				}
				if len(vs.Names) == len(vs.Values) {
					for i, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						if ref, ok := ix.inferRHS(n, vs.Values[i]); ok {
							n.env[name.Name] = ref
						}
					}
				}
			}
		}
		return true
	})
}

// buildEnvAndWalk fills a declaration node's environment and runs the
// summary walker over its body.
func (ix *ipIndex) buildEnvAndWalk(n *FuncNode) {
	fd := n.Decl
	ix.classifyFieldList(n, fd.Recv)
	ix.classifyFieldList(n, fd.Type.Params)
	ix.classifyFieldList(n, fd.Type.Results)
	ix.inferLocals(n, fd.Body)
	ix.walkNode(n, fd.Body)
}

// walkNode runs the summary walker over one node's body.
func (ix *ipIndex) walkNode(n *FuncNode, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	w := &funcWalker{ix: ix, n: n}
	held := map[string]bool{}
	w.stmtList(body.List, held)
}

// resolveCallees resolves a call expression to its module callees per
// the resolution ladder. The bool result marks conservative
// (interface-fallback) resolution.
func (ix *ipIndex) resolveCallees(n *FuncNode, call *ast.CallExpr) ([]FuncID, bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, shadowed := n.env[fun.Name]; shadowed {
			return nil, false
		}
		id := FuncID(n.Pkg.RelDir + ":" + fun.Name)
		if _, ok := ix.funcs[id]; ok {
			return []FuncID{id}, false
		}
	case *ast.SelectorExpr:
		if base, ok := fun.X.(*ast.Ident); ok {
			if _, isVar := n.env[base.Name]; !isVar {
				if path, ok := ix.importsOf(n.File)[base.Name]; ok {
					if dir, ok := ix.dirForImport(path); ok {
						id := FuncID(dir + ":" + fun.Sel.Name)
						if _, ok := ix.funcs[id]; ok {
							return []FuncID{id}, false
						}
					}
					return nil, false // external package call
				}
			}
		}
		if ref, ok := ix.resolveValue(n, fun.X); ok {
			if ref.Name != "" && ref.moduleNamed() {
				id := FuncID(ref.Dir + ":" + ref.Name + "." + fun.Sel.Name)
				if _, ok := ix.funcs[id]; ok {
					return []FuncID{id}, false
				}
			}
			return nil, false // resolved receiver, method elsewhere: silence
		}
		if ix.ifaceMethods[fun.Sel.Name] {
			cands := ix.methodsByName[fun.Sel.Name]
			if len(cands) > 0 && len(cands) <= maxConservativeFanout {
				return cands, true
			}
		}
	}
	return nil, false
}

// lockTarget resolves the receiver of a Lock/Unlock/RLock/RUnlock call
// to a stable lock ID: a mutex struct field (owner type resolved
// through the environment and field index) or a package-level mutex
// variable.
func (ix *ipIndex) lockTarget(n *FuncNode, base ast.Expr) (string, bool) {
	switch x := unparen(base).(type) {
	case *ast.SelectorExpr:
		owner, ok := ix.resolveValue(n, x.X)
		if !ok || !owner.moduleNamed() {
			return "", false
		}
		ft, ok := ix.fieldType(owner, x.Sel.Name)
		if !ok || !ft.isMutex() {
			return "", false
		}
		if owner.Dir == "." {
			return owner.Name + "." + x.Sel.Name, true
		}
		return owner.Dir + "." + owner.Name + "." + x.Sel.Name, true
	case *ast.Ident:
		if _, shadowed := n.env[x.Name]; shadowed {
			return "", false // function-local mutex: no stable cross-function ID
		}
		if ix.pkgMutexVars[n.Pkg.RelDir][x.Name] {
			if n.Pkg.RelDir == "." {
				return x.Name, true
			}
			return n.Pkg.RelDir + "." + x.Name, true
		}
	}
	return "", false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// exprCtx carries the syntactic context an expression is evaluated in,
// for the allocation exemptions.
type exprCtx struct {
	// inReturn: the expression sits inside a return statement —
	// fmt.Errorf/errors.New there are the cold error path.
	inReturn bool
	// mapIndex: the expression is an index operand — string(b) used as
	// a map key does not allocate.
	mapIndex bool
}

// funcWalker computes one node's direct summary: a linear scan of the
// body in source order, tracking the held-lock set the way
// lockdiscipline does (branch-local state never leaks back out;
// deferred unlocks do not clear the set).
type funcWalker struct {
	ix     *ipIndex
	n      *FuncNode
	litSeq int
}

func copyHeld(h map[string]bool) map[string]bool {
	c := make(map[string]bool, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

func heldList(h map[string]bool) []string {
	if len(h) == 0 {
		return nil
	}
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (w *funcWalker) alloc(pos token.Pos, what string) {
	w.n.Allocs = append(w.n.Allocs, AllocSite{Pos: pos, What: what})
}

func (w *funcWalker) stmtList(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmtLabeled(s, held, "")
	}
}

// lockOp classifies a call expression as a resolvable mutex operation.
func (w *funcWalker) lockOp(call *ast.CallExpr) (op, lock string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	id, ok := w.ix.lockTarget(w.n, sel.X)
	if !ok {
		return "", "", false
	}
	return sel.Sel.Name, id, true
}

func (w *funcWalker) recordLock(op, lock string, pos token.Pos, held map[string]bool) {
	switch op {
	case "Lock", "RLock":
		w.n.Locks = append(w.n.Locks, LockEvent{Lock: lock, Op: op, Pos: pos, Held: heldList(held)})
		held[lock] = true
	case "Unlock", "RUnlock":
		w.n.Locks = append(w.n.Locks, LockEvent{Lock: lock, Op: op, Pos: pos})
		delete(held, lock)
	}
}

func (w *funcWalker) stmtLabeled(s ast.Stmt, held map[string]bool, label string) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.expr(x.X, held, exprCtx{})
	case *ast.AssignStmt:
		w.assign(x, held)
	case *ast.IncDecStmt:
		if ie, ok := x.X.(*ast.IndexExpr); ok {
			w.mapGrowth(ie)
		}
		w.expr(x.X, held, exprCtx{})
	case *ast.SendStmt:
		if len(held) > 0 {
			w.n.Sends = append(w.n.Sends, HeldEvent{Pos: x.Pos(), Held: heldList(held), What: "channel send"})
		}
		w.expr(x.Chan, held, exprCtx{})
		w.expr(x.Value, held, exprCtx{})
	case *ast.GoStmt:
		w.spawnStmt(x, held)
	case *ast.DeferStmt:
		// A deferred call runs at return under whatever state the body
		// established: the call itself is not summarized (matching
		// lockdiscipline), only its argument expressions, which are
		// evaluated now.
		for _, a := range x.Call.Args {
			w.expr(a, held, exprCtx{})
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.expr(r, held, exprCtx{inReturn: true})
		}
	case *ast.BlockStmt:
		nested := copyHeld(held)
		w.stmtList(x.List, nested)
	case *ast.IfStmt:
		if x.Init != nil {
			w.stmtLabeled(x.Init, held, "")
		}
		w.expr(x.Cond, held, exprCtx{})
		w.stmtLabeled(x.Body, held, "")
		if x.Else != nil {
			w.stmtLabeled(x.Else, held, "")
		}
	case *ast.ForStmt:
		if x.Cond == nil && !loopExits(x, label) {
			w.n.LoopsForever = true
		}
		nested := copyHeld(held)
		if x.Init != nil {
			w.stmtLabeled(x.Init, nested, "")
		}
		if x.Cond != nil {
			w.expr(x.Cond, nested, exprCtx{})
		}
		if x.Post != nil {
			w.stmtLabeled(x.Post, nested, "")
		}
		w.stmtLabeled(x.Body, nested, "")
	case *ast.RangeStmt:
		if w.rangeOverChannel(x) {
			w.n.ObservesExit = true
		}
		w.expr(x.X, held, exprCtx{})
		nested := copyHeld(held)
		w.stmtLabeled(x.Body, nested, "")
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmtLabeled(x.Init, held, "")
		}
		if x.Tag != nil {
			w.expr(x.Tag, held, exprCtx{})
		}
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				for _, e := range clause.List {
					w.expr(e, held, exprCtx{})
				}
				nested := copyHeld(held)
				w.stmtList(clause.Body, nested)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.stmtLabeled(x.Init, held, "")
		}
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				nested := copyHeld(held)
				w.stmtList(clause.Body, nested)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range x.Body.List {
			clause, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			nested := copyHeld(held)
			if clause.Comm != nil {
				w.stmtLabeled(clause.Comm, nested, "")
			}
			w.stmtList(clause.Body, nested)
		}
	case *ast.LabeledStmt:
		w.stmtLabeled(x.Stmt, held, x.Label.Name)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held, exprCtx{})
					}
				}
			}
		}
	}
}

// rangeOverChannel reports a range over a channel-typed (or
// shutdown-named) expression.
func (w *funcWalker) rangeOverChannel(x *ast.RangeStmt) bool {
	if ref, ok := w.ix.resolveValue(w.n, x.X); ok {
		return ref.Kind == RefChan
	}
	return stopChanRE.MatchString(lastName(x.X))
}

// lastName is the trailing identifier of an ident or selector chain.
func lastName(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// assign handles the allocation heuristics that need assignment
// context: map-index growth on the left, the self-append exemption on
// the right, and the two-value channel receive.
func (w *funcWalker) assign(x *ast.AssignStmt, held map[string]bool) {
	if len(x.Lhs) == 2 && len(x.Rhs) == 1 {
		if u, ok := x.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.n.ObservesExit = true
		}
	}
	for _, lhs := range x.Lhs {
		if ie, ok := lhs.(*ast.IndexExpr); ok {
			w.mapGrowth(ie)
			w.expr(ie.X, held, exprCtx{})
			w.expr(ie.Index, held, exprCtx{mapIndex: true})
		}
	}
	for i, rhs := range x.Rhs {
		if call, ok := appendCall(rhs); ok {
			// x = append(x, …) (including x = append(x[:0], …), and the
			// field form b.buf = append(b.buf, …)) is the amortized
			// pooled-buffer idiom: steady-state zero-alloc, exempt.
			// Appending into a different destination copies on growth.
			if i < len(x.Lhs) && len(call.Args) > 0 && appendTarget(x.Lhs[i]) != "" &&
				appendTarget(x.Lhs[i]) == appendTarget(call.Args[0]) {
				for _, a := range call.Args {
					w.expr(a, held, exprCtx{})
				}
				continue
			}
			w.alloc(call.Pos(), "append into a new destination may allocate")
			for _, a := range call.Args {
				w.expr(a, held, exprCtx{})
			}
			continue
		}
		w.expr(rhs, held, exprCtx{})
	}
}

// mapGrowth records a store through a map index when the base resolves
// to a map type.
func (w *funcWalker) mapGrowth(ie *ast.IndexExpr) {
	if ref, ok := w.ix.resolveValue(w.n, ie.X); ok && ref.Kind == RefMap {
		w.alloc(ie.Pos(), "map store may grow the map")
	}
}

// appendCall matches append(…) on the right-hand side.
func appendCall(e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	return call, true
}

// appendTarget renders the destination identity of an append operand:
// "x" for x and x[:0], "r.f" for r.f and r.f[:0]; "" when it has no
// stable identity.
func appendTarget(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base, ok := unparen(x.X).(*ast.Ident); ok {
			return base.Name + "." + x.Sel.Name
		}
	case *ast.SliceExpr:
		return appendTarget(x.X)
	}
	return ""
}

// expr is the recursive expression scanner: calls, spawns-in-args,
// receives, literals and conversions, with the held set threaded
// through.
func (w *funcWalker) expr(e ast.Expr, held map[string]bool, ctx exprCtx) {
	switch x := e.(type) {
	case nil:
		return
	case *ast.Ident, *ast.BasicLit:
		return
	case *ast.ParenExpr:
		w.expr(x.X, held, ctx)
	case *ast.SelectorExpr:
		w.expr(x.X, held, exprCtx{inReturn: ctx.inReturn})
	case *ast.StarExpr:
		w.expr(x.X, held, exprCtx{inReturn: ctx.inReturn})
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			w.receive(x.X)
			w.expr(x.X, held, exprCtx{})
			return
		}
		if x.Op == token.AND {
			if cl, ok := x.X.(*ast.CompositeLit); ok {
				w.alloc(x.Pos(), "composite-literal pointer allocates")
				w.compositeChildren(cl, held, ctx)
				return
			}
		}
		w.expr(x.X, held, ctx)
	case *ast.BinaryExpr:
		w.expr(x.X, held, exprCtx{inReturn: ctx.inReturn})
		w.expr(x.Y, held, exprCtx{inReturn: ctx.inReturn})
	case *ast.CallExpr:
		w.call(x, held, ctx)
	case *ast.IndexExpr:
		w.expr(x.X, held, exprCtx{inReturn: ctx.inReturn})
		w.expr(x.Index, held, exprCtx{inReturn: ctx.inReturn, mapIndex: true})
	case *ast.IndexListExpr:
		w.expr(x.X, held, exprCtx{inReturn: ctx.inReturn})
	case *ast.SliceExpr:
		w.expr(x.X, held, exprCtx{inReturn: ctx.inReturn})
		w.expr(x.Low, held, exprCtx{})
		w.expr(x.High, held, exprCtx{})
		w.expr(x.Max, held, exprCtx{})
	case *ast.CompositeLit:
		switch t := x.Type.(type) {
		case *ast.MapType:
			w.alloc(x.Pos(), "map literal allocates")
		case *ast.ArrayType:
			if t.Len == nil {
				w.alloc(x.Pos(), "slice literal allocates")
			}
		default:
			// Named map types still allocate; struct value literals are
			// stack-allocated and exempt.
			if x.Type != nil {
				if ref, ok := w.ix.resolveTypeExpr(w.n.File, w.n.Pkg, x.Type); ok && ref.Kind == RefMap {
					w.alloc(x.Pos(), "map literal allocates")
				}
			}
		}
		w.compositeChildren(x, held, ctx)
	case *ast.FuncLit:
		w.makeLit(x)
		w.alloc(x.Pos(), "closure allocation (func literal)")
	case *ast.KeyValueExpr:
		w.expr(x.Key, held, exprCtx{inReturn: ctx.inReturn})
		w.expr(x.Value, held, exprCtx{inReturn: ctx.inReturn})
	case *ast.TypeAssertExpr:
		w.expr(x.X, held, exprCtx{inReturn: ctx.inReturn})
	}
}

func (w *funcWalker) compositeChildren(cl *ast.CompositeLit, held map[string]bool, ctx exprCtx) {
	for _, elt := range cl.Elts {
		w.expr(elt, held, exprCtx{inReturn: ctx.inReturn})
	}
}

// receive classifies a channel-receive operand for exit observation.
func (w *funcWalker) receive(operand ast.Expr) {
	switch x := unparen(operand).(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			w.n.ObservesExit = true
		}
	default:
		_ = x
		if stopChanRE.MatchString(lastName(operand)) {
			w.n.ObservesExit = true
		}
	}
}

// call summarizes one call expression: lock ops, conversions,
// builtins, external allocation/boxing special cases, watched IO
// methods, RPC-under-lock, and resolved call edges.
func (w *funcWalker) call(call *ast.CallExpr, held map[string]bool, ctx exprCtx) {
	if op, lock, ok := w.lockOp(call); ok {
		w.recordLock(op, lock, call.Pos(), held)
		return
	}
	argCtx := exprCtx{inReturn: ctx.inReturn}
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		// Immediately-invoked literal: a synchronous call edge, no
		// closure escape.
		child := w.makeLit(fun)
		w.n.Calls = append(w.n.Calls, Call{Pos: call.Pos(), Callee: child.ID, Held: heldList(held)})
	case *ast.ArrayType:
		w.alloc(call.Pos(), "slice conversion allocates")
	case *ast.Ident:
		switch fun.Name {
		case "make":
			w.alloc(call.Pos(), "make allocates")
		case "new":
			w.alloc(call.Pos(), "new allocates")
		case "append":
			// Reached only outside the self-append assignment form.
			w.alloc(call.Pos(), "append may grow its destination")
		case "string":
			if !ctx.mapIndex {
				w.alloc(call.Pos(), "string conversion allocates")
			}
		case "len", "cap", "copy", "delete", "panic", "recover", "close",
			"print", "println", "min", "max", "clear", "complex", "real", "imag":
			// builtins that do not allocate
		default:
			if _, isType := w.ix.declared[typeKey{w.n.Pkg.RelDir, fun.Name}]; isType {
				break // conversion to a package-local named type
			}
			for _, id := range w.firstResolved(call) {
				w.n.Calls = append(w.n.Calls, Call{Pos: call.Pos(), Callee: id, Held: heldList(held)})
			}
		}
	case *ast.SelectorExpr:
		w.selectorCall(call, fun, held, ctx)
	}
	for _, a := range call.Args {
		w.expr(a, held, argCtx)
	}
}

// firstResolved wraps resolveCallees for the non-conservative ident
// case.
func (w *funcWalker) firstResolved(call *ast.CallExpr) []FuncID {
	ids, conservative := w.ix.resolveCallees(w.n, call)
	if conservative {
		return nil
	}
	return ids
}

// selectorCall handles pkg.F and x.M call shapes.
func (w *funcWalker) selectorCall(call *ast.CallExpr, fun *ast.SelectorExpr, held map[string]bool, ctx exprCtx) {
	if base, ok := fun.X.(*ast.Ident); ok {
		if _, isVar := w.n.env[base.Name]; !isVar {
			if path, ok := w.ix.importsOf(w.n.File)[base.Name]; ok {
				w.pkgCall(call, path, fun.Sel.Name, held, ctx)
				return
			}
		}
	}
	name := fun.Sel.Name
	if name == "Wait" {
		// WaitGroup-style join: an exit path whether or not the
		// receiver resolves.
		w.n.ObservesExit = true
	}
	if ref, ok := w.ix.resolveValue(w.n, fun.X); ok {
		if watchedErrorMethods[name] && !infallibleRecv(ref) {
			w.n.DirectWatched = true
		}
		if ref.Dir == extPrefix+"net/http" && name == "Do" && len(held) > 0 {
			w.n.Sends = append(w.n.Sends, HeldEvent{Pos: call.Pos(), Held: heldList(held), What: "http request"})
		}
	}
	ids, conservative := w.ix.resolveCallees(w.n, call)
	for _, id := range ids {
		w.n.Calls = append(w.n.Calls, Call{Pos: call.Pos(), Callee: id, Conservative: conservative, Held: heldList(held)})
	}
	w.expr(fun.X, held, exprCtx{inReturn: ctx.inReturn})
}

// pkgCall handles calls into other packages: module packages get call
// edges; a few external packages carry allocation/boxing or RPC
// significance.
func (w *funcWalker) pkgCall(call *ast.CallExpr, path, name string, held map[string]bool, ctx exprCtx) {
	if dir, ok := w.ix.dirForImport(path); ok {
		id := FuncID(dir + ":" + name)
		if _, ok := w.ix.funcs[id]; ok {
			w.n.Calls = append(w.n.Calls, Call{Pos: call.Pos(), Callee: id, Held: heldList(held)})
		}
		return
	}
	switch path {
	case "fmt":
		if name == "Errorf" && ctx.inReturn {
			break // cold error-construction path
		}
		w.alloc(call.Pos(), "fmt."+name+" boxes its arguments")
	case "errors":
		if name == "New" && !ctx.inReturn {
			w.alloc(call.Pos(), "errors.New allocates")
		}
	case "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head":
			if len(held) > 0 {
				w.n.Sends = append(w.n.Sends, HeldEvent{Pos: call.Pos(), Held: heldList(held), What: "http request"})
			}
		}
	}
}

// spawnStmt records a `go` statement: the spawned function becomes a
// Spawn edge (never a synchronous call — the goroutine does not
// inherit the spawner's locks), and the argument expressions are
// evaluated synchronously.
func (w *funcWalker) spawnStmt(g *ast.GoStmt, held map[string]bool) {
	call := g.Call
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		child := w.makeLit(lit)
		w.n.Spawns = append(w.n.Spawns, Spawn{Pos: g.Pos(), Callee: child.ID})
	} else {
		ids, conservative := w.ix.resolveCallees(w.n, call)
		for _, id := range ids {
			w.n.Spawns = append(w.n.Spawns, Spawn{Pos: g.Pos(), Callee: id, Conservative: conservative})
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			w.expr(sel.X, held, exprCtx{})
		}
	}
	for _, a := range call.Args {
		w.expr(a, held, exprCtx{})
	}
}

// makeLit creates, indexes and walks the node for a function literal.
// The literal's environment is the lexical parent environment plus its
// own parameters and locals; its lock state starts empty (the literal
// runs later, elsewhere — synchronous invocation is modeled by the
// call edge, which carries the caller's held set).
func (w *funcWalker) makeLit(lit *ast.FuncLit) *FuncNode {
	w.litSeq++
	id := FuncID(string(w.n.ID) + "$" + strconv.Itoa(w.litSeq))
	child := &FuncNode{
		ID:           id,
		Pkg:          w.n.Pkg,
		File:         w.n.File,
		Lit:          lit,
		Display:      w.n.Display + "$" + strconv.Itoa(w.litSeq),
		Pos:          lit.Pos(),
		ReturnsError: lastResultIsError(lit.Type),
		env:          make(map[string]TypeRef, len(w.n.env)),
	}
	for k, v := range w.n.env {
		child.env[k] = v
	}
	w.ix.funcs[id] = child
	w.ix.classifyFieldList(child, lit.Type.Params)
	w.ix.classifyFieldList(child, lit.Type.Results)
	w.ix.inferLocals(child, lit.Body)
	w.ix.walkNode(child, lit.Body)
	return child
}

// loopExits reports whether a condition-less for loop has a reachable
// exit: a return anywhere in its body (outside nested literals), an
// unlabeled break at its own level, a break to its label, or a goto.
func loopExits(fs *ast.ForStmt, label string) bool {
	exits := false
	depth := 0
	var stack []bool
	ast.Inspect(fs.Body, func(n ast.Node) bool {
		if n == nil {
			if len(stack) > 0 {
				if stack[len(stack)-1] {
					depth--
				}
				stack = stack[:len(stack)-1]
			}
			return true
		}
		if exits {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exits = true
			return false
		case *ast.BranchStmt:
			switch x.Tok {
			case token.BREAK:
				if x.Label != nil {
					if label != "" && x.Label.Name == label {
						exits = true
					}
				} else if depth == 0 {
					exits = true
				}
			case token.GOTO:
				exits = true // conservatively assume the goto leaves
			}
			return false
		}
		breakable := false
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			breakable = true
		}
		if breakable {
			depth++
		}
		stack = append(stack, breakable)
		return true
	})
	return exits
}
