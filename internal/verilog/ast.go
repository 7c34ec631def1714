package verilog

import (
	"fmt"
	"strconv"
	"strings"
)

// SourceFile is the root of a parsed Verilog file.
type SourceFile struct {
	Modules []*Module
}

// Module finds a module by name, or nil.
func (f *SourceFile) Module(name string) *Module {
	for _, m := range f.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// PortDir is a port direction.
type PortDir int

// Port directions.
const (
	DirInput PortDir = iota
	DirOutput
	DirInout
)

// String implements fmt.Stringer.
func (d PortDir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	case DirInout:
		return "inout"
	}
	return "dir?"
}

// Module is a Verilog module declaration.
type Module struct {
	Name  string
	Line  int
	Ports []*Port
	Items []Item
}

// Port returns the module port named name, or nil.
func (m *Module) Port(name string) *Port {
	for _, p := range m.Ports {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// InputPorts returns the input ports in declaration order.
func (m *Module) InputPorts() []*Port {
	var out []*Port
	for _, p := range m.Ports {
		if p.Dir == DirInput {
			out = append(out, p)
		}
	}
	return out
}

// Port is a module port (ANSI style).
type Port struct {
	Dir    PortDir
	IsReg  bool
	Signed bool
	Range  *Range // nil means 1-bit
	Name   string
	Line   int
}

// Range is a [MSB:LSB] vector or array range.
type Range struct {
	MSB Expr
	LSB Expr
}

// Item is a module-level item.
type Item interface {
	ItemLine() int
	itemNode()
}

// NetKind distinguishes net/variable declarations.
type NetKind int

// Net kinds.
const (
	KindWire NetKind = iota
	KindReg
	KindInteger
)

// String implements fmt.Stringer.
func (k NetKind) String() string {
	switch k {
	case KindWire:
		return "wire"
	case KindReg:
		return "reg"
	case KindInteger:
		return "integer"
	}
	return "net?"
}

// DeclName is one name within a declaration list, optionally an array
// (memory) with an initializer (wire only).
type DeclName struct {
	Name       string
	ArrayRange *Range // non-nil for memories: reg [7:0] mem [0:255]
	Init       Expr   // wire w = expr
	Line       int
}

// NetDecl declares wires, regs or integers.
type NetDecl struct {
	Kind   NetKind
	Signed bool
	Range  *Range
	Names  []DeclName
	Line   int
}

// ParamDecl declares a parameter or localparam.
type ParamDecl struct {
	Local bool
	Name  string
	Value Expr
	Line  int
}

// ContAssign is a continuous assignment: assign LHS = RHS.
type ContAssign struct {
	LHS  Expr
	RHS  Expr
	Line int
}

// EdgeKind is a sensitivity edge.
type EdgeKind int

// Edge kinds.
const (
	EdgeNone EdgeKind = iota // level sensitivity
	EdgePos
	EdgeNeg
)

// String implements fmt.Stringer.
func (e EdgeKind) String() string {
	switch e {
	case EdgePos:
		return "posedge"
	case EdgeNeg:
		return "negedge"
	}
	return ""
}

// SensItem is one entry of a sensitivity list.
type SensItem struct {
	Edge   EdgeKind
	Signal string
	Line   int
}

// SensList is an always-block sensitivity list. Star means @(*) or @*.
type SensList struct {
	Star  bool
	Items []SensItem
}

// Edged reports whether any item is edge-triggered (a sequential block).
func (s *SensList) Edged() bool {
	for _, it := range s.Items {
		if it.Edge != EdgeNone {
			return true
		}
	}
	return false
}

// AlwaysBlock is an always construct.
type AlwaysBlock struct {
	Sens *SensList
	Body Stmt
	Line int
}

// InitialBlock is an initial construct (executed once at time zero).
type InitialBlock struct {
	Body Stmt
	Line int
}

// PortConn is a named connection .Port(Expr) for instances and parameter
// overrides. Expr may be nil for an unconnected port: .p().
type PortConn struct {
	Port string
	Expr Expr
	Line int
}

// Instance is a module instantiation.
type Instance struct {
	ModName  string
	InstName string
	Params   []PortConn
	Conns    []PortConn
	Line     int
}

// ItemLine implements Item.
func (d *NetDecl) ItemLine() int { return d.Line }

// ItemLine implements Item.
func (d *ParamDecl) ItemLine() int { return d.Line }

// ItemLine implements Item.
func (a *ContAssign) ItemLine() int { return a.Line }

// ItemLine implements Item.
func (a *AlwaysBlock) ItemLine() int { return a.Line }

// ItemLine implements Item.
func (i *InitialBlock) ItemLine() int { return i.Line }

// ItemLine implements Item.
func (i *Instance) ItemLine() int { return i.Line }

func (d *NetDecl) itemNode()      {}
func (d *ParamDecl) itemNode()    {}
func (a *ContAssign) itemNode()   {}
func (a *AlwaysBlock) itemNode()  {}
func (i *InitialBlock) itemNode() {}
func (i *Instance) itemNode()     {}

// Stmt is a procedural statement.
type Stmt interface {
	StmtLine() int
	stmtNode()
}

// Block is begin ... end.
type Block struct {
	Stmts []Stmt
	Line  int
}

// Assign is a procedural assignment. Blocking selects "=" vs "<=".
type Assign struct {
	LHS      Expr
	RHS      Expr
	Blocking bool
	Line     int
}

// If is an if/else statement. Else may be nil.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt
	Line int
}

// CaseItem is one arm of a case statement; Exprs nil means default.
type CaseItem struct {
	Exprs []Expr
	Body  Stmt
	Line  int
}

// Case is case/casez/casex.
type Case struct {
	Kind  string // "case", "casez", "casex"
	Expr  Expr
	Items []CaseItem
	Line  int
}

// For is a for loop with assignment init and step.
type For struct {
	Init *Assign
	Cond Expr
	Step *Assign
	Body Stmt
	Line int
}

// NullStmt is a bare semicolon.
type NullStmt struct {
	Line int
}

// StmtLine implements Stmt.
func (b *Block) StmtLine() int { return b.Line }

// StmtLine implements Stmt.
func (a *Assign) StmtLine() int { return a.Line }

// StmtLine implements Stmt.
func (i *If) StmtLine() int { return i.Line }

// StmtLine implements Stmt.
func (c *Case) StmtLine() int { return c.Line }

// StmtLine implements Stmt.
func (f *For) StmtLine() int { return f.Line }

// StmtLine implements Stmt.
func (n *NullStmt) StmtLine() int { return n.Line }

func (b *Block) stmtNode()    {}
func (a *Assign) stmtNode()   {}
func (i *If) stmtNode()       {}
func (c *Case) stmtNode()     {}
func (f *For) stmtNode()      {}
func (n *NullStmt) stmtNode() {}

// Expr is an expression node.
type Expr interface {
	ExprLine() int
	exprNode()
}

// Ident is a signal or parameter reference.
type Ident struct {
	Name string
	Line int
}

// Number is a literal. Width 0 means unsized (32-bit by convention).
type Number struct {
	Text  string
	Width int
	Value uint64
	HasXZ bool
	Line  int
}

// Unary is a prefix operation, including reductions (&, |, ^, ~&, ~|, ~^).
type Unary struct {
	Op   string
	X    Expr
	Line int
}

// Binary is an infix operation.
type Binary struct {
	Op   string
	X, Y Expr
	Line int
}

// Ternary is cond ? a : b.
type Ternary struct {
	Cond, Then, Else Expr
	Line             int
}

// Index is a bit-select or memory word select: x[i].
type Index struct {
	X     Expr
	Index Expr
	Line  int
}

// PartSelect is a constant part select: x[msb:lsb].
type PartSelect struct {
	X        Expr
	MSB, LSB Expr
	Line     int
}

// Concat is {a, b, c}.
type Concat struct {
	Parts []Expr
	Line  int
}

// Repl is a replication {n{expr}}.
type Repl struct {
	Count Expr
	Value Expr
	Line  int
}

// ExprLine implements Expr.
func (e *Ident) ExprLine() int { return e.Line }

// ExprLine implements Expr.
func (e *Number) ExprLine() int { return e.Line }

// ExprLine implements Expr.
func (e *Unary) ExprLine() int { return e.Line }

// ExprLine implements Expr.
func (e *Binary) ExprLine() int { return e.Line }

// ExprLine implements Expr.
func (e *Ternary) ExprLine() int { return e.Line }

// ExprLine implements Expr.
func (e *Index) ExprLine() int { return e.Line }

// ExprLine implements Expr.
func (e *PartSelect) ExprLine() int { return e.Line }

// ExprLine implements Expr.
func (e *Concat) ExprLine() int { return e.Line }

// ExprLine implements Expr.
func (e *Repl) ExprLine() int { return e.Line }

func (e *Ident) exprNode()      {}
func (e *Number) exprNode()     {}
func (e *Unary) exprNode()      {}
func (e *Binary) exprNode()     {}
func (e *Ternary) exprNode()    {}
func (e *Index) exprNode()      {}
func (e *PartSelect) exprNode() {}
func (e *Concat) exprNode()     {}
func (e *Repl) exprNode()       {}

// ParseNumberLiteral decodes a Verilog number token into width, value and
// whether it contained x/z digits (which our 2-state evaluation maps to 0).
func ParseNumberLiteral(text string) (width int, value uint64, hasXZ bool, err error) {
	s := strings.ReplaceAll(text, "_", "")
	tick := strings.IndexByte(s, '\'')
	if tick < 0 {
		v, perr := strconv.ParseUint(s, 10, 64)
		if perr != nil {
			return 0, 0, false, fmt.Errorf("verilog: bad number %q", text)
		}
		return 0, v, false, nil
	}
	width = 0
	if tick > 0 {
		w, perr := strconv.Atoi(s[:tick])
		if perr != nil || w <= 0 || w > 64 {
			return 0, 0, false, fmt.Errorf("verilog: bad width in %q", text)
		}
		width = w
	}
	rest := s[tick+1:]
	if rest != "" && (rest[0] == 's' || rest[0] == 'S') {
		rest = rest[1:]
	}
	if rest == "" {
		return 0, 0, false, fmt.Errorf("verilog: missing base in %q", text)
	}
	base := rest[0]
	digits := rest[1:]
	var radix int
	switch base {
	case 'b', 'B':
		radix = 2
	case 'o', 'O':
		radix = 8
	case 'd', 'D':
		radix = 10
	case 'h', 'H':
		radix = 16
	default:
		return 0, 0, false, fmt.Errorf("verilog: bad base %q in %q", string(base), text)
	}
	// Map x/z/? digits to 0, flagging them.
	clean := make([]byte, 0, len(digits))
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '?' {
			hasXZ = true
			clean = append(clean, '0')
		} else {
			clean = append(clean, c)
		}
	}
	if len(clean) == 0 {
		return 0, 0, false, fmt.Errorf("verilog: no digits in %q", text)
	}
	v, perr := strconv.ParseUint(string(clean), radix, 64)
	if perr != nil {
		return 0, 0, false, fmt.Errorf("verilog: bad digits in %q", text)
	}
	if width > 0 && width < 64 {
		v &= (1 << uint(width)) - 1
	}
	return width, v, hasXZ, nil
}
