// Package sexpr implements a reader and printer for the S-expression
// surface syntax of the SMT-LIB v2 language.
//
// The reader produces a tree of Node values. Symbols, keywords, numerals,
// decimals, hexadecimals, binaries and string literals are distinguished
// following Section 3.1 of the SMT-LIB standard. The package performs no
// semantic interpretation; package smt builds typed terms on top of it.
package sexpr

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind identifies the lexical class of an atom or the list class.
type Kind int

// Node kinds.
const (
	KindList Kind = iota
	KindSymbol
	KindKeyword
	KindNumeral
	KindDecimal
	KindHex
	KindBinary
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindList:
		return "list"
	case KindSymbol:
		return "symbol"
	case KindKeyword:
		return "keyword"
	case KindNumeral:
		return "numeral"
	case KindDecimal:
		return "decimal"
	case KindHex:
		return "hex"
	case KindBinary:
		return "binary"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a single S-expression: either an atom (Text holds the token,
// without quoting) or a list (Items holds the children).
type Node struct {
	Kind  Kind
	Text  string
	Items []*Node
	Line  int
	Col   int
}

// IsSymbol reports whether the node is the symbol s.
func (n *Node) IsSymbol(s string) bool { return n.Kind == KindSymbol && n.Text == s }

// Len returns the number of items for a list node and 0 for atoms.
func (n *Node) Len() int { return len(n.Items) }

// Head returns the leading symbol text of a list node, or "" if the node is
// not a list or its first item is not a symbol.
func (n *Node) Head() string {
	if n.Kind == KindList && len(n.Items) > 0 && n.Items[0].Kind == KindSymbol {
		return n.Items[0].Text
	}
	return ""
}

// String renders the node back to SMT-LIB concrete syntax.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *Node) write(b *strings.Builder) {
	switch n.Kind {
	case KindList:
		b.WriteByte('(')
		for i, it := range n.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			it.write(b)
		}
		b.WriteByte(')')
	case KindString:
		b.WriteByte('"')
		b.WriteString(strings.ReplaceAll(n.Text, `"`, `""`))
		b.WriteByte('"')
	case KindSymbol:
		if needsQuoting(n.Text) {
			b.WriteByte('|')
			b.WriteString(n.Text)
			b.WriteByte('|')
		} else {
			b.WriteString(n.Text)
		}
	default:
		b.WriteString(n.Text)
	}
}

func needsQuoting(sym string) bool {
	if sym == "" {
		return true
	}
	for _, r := range sym {
		if !isSymbolRune(r) {
			return true
		}
	}
	// A simple symbol must not start with a digit.
	return sym[0] >= '0' && sym[0] <= '9'
}

func isSymbolRune(r rune) bool {
	if unicode.IsLetter(r) || unicode.IsDigit(r) {
		return true
	}
	switch r {
	case '~', '!', '@', '$', '%', '^', '&', '*', '_', '-', '+', '=', '<', '>', '.', '?', '/':
		return true
	}
	return false
}

// Symbol returns a new symbol atom.
func Symbol(s string) *Node { return &Node{Kind: KindSymbol, Text: s} }

// List returns a new list node with the given items.
func List(items ...*Node) *Node { return &Node{Kind: KindList, Items: items} }

// SyntaxError describes a lexical or structural error with its position.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sexpr: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// MaxDepth bounds list nesting. The reader recurses per nesting level, so
// without a bound an adversarial input of a few hundred kilobytes of '('
// could exhaust the stack; at this limit the deepest legitimate scripts
// pass with orders of magnitude to spare while the parser stays well
// inside a goroutine stack.
const MaxDepth = 10000

// Parser reads a sequence of S-expressions from an input string.
type Parser struct {
	src   string
	pos   int
	line  int
	col   int
	depth int
}

// NewParser returns a parser over src.
func NewParser(src string) *Parser {
	return &Parser{src: src, line: 1, col: 1}
}

// ParseAll reads every top-level S-expression from src.
func ParseAll(src string) ([]*Node, error) {
	p := NewParser(src)
	var out []*Node
	for {
		n, err := p.Next()
		if err != nil {
			return out, err
		}
		if n == nil {
			return out, nil
		}
		out = append(out, n)
	}
}

// Next returns the next top-level S-expression, or (nil, nil) at end of
// input.
func (p *Parser) Next() (*Node, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, nil
	}
	return p.parseNode()
}

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *Parser) peek() byte { return p.src[p.pos] }

func (p *Parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.peek()
		switch {
		case c == ';':
			for p.pos < len(p.src) && p.peek() != '\n' {
				p.advance()
			}
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			p.advance()
		default:
			return
		}
	}
}

func (p *Parser) parseNode() (*Node, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of input")
	}
	line, col := p.line, p.col
	c := p.peek()
	switch {
	case c == '(':
		if p.depth >= MaxDepth {
			return nil, p.errf("list nesting exceeds %d levels", MaxDepth)
		}
		p.depth++
		defer func() { p.depth-- }()
		p.advance()
		n := &Node{Kind: KindList, Line: line, Col: col}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, p.errf("unterminated list opened at %d:%d", line, col)
			}
			if p.peek() == ')' {
				p.advance()
				return n, nil
			}
			item, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.Items = append(n.Items, item)
		}
	case c == ')':
		return nil, p.errf("unexpected ')'")
	case c == '"':
		return p.parseString(line, col)
	case c == '|':
		return p.parseQuotedSymbol(line, col)
	case c == ':':
		p.advance()
		text := p.takeSymbolBody()
		if text == "" {
			return nil, p.errf("empty keyword")
		}
		return &Node{Kind: KindKeyword, Text: ":" + text, Line: line, Col: col}, nil
	case c == '#':
		return p.parseHashLiteral(line, col)
	case c >= '0' && c <= '9':
		return p.parseNumber(line, col)
	default:
		text := p.takeSymbolBody()
		if text == "" {
			return nil, p.errf("unexpected character %q", c)
		}
		return &Node{Kind: KindSymbol, Text: text, Line: line, Col: col}, nil
	}
}

func (p *Parser) takeSymbolBody() string {
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.peek())
		if !isSymbolRune(r) {
			break
		}
		p.advance()
	}
	return p.src[start:p.pos]
}

func (p *Parser) parseString(line, col int) (*Node, error) {
	p.advance() // opening quote
	var b strings.Builder
	for {
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated string literal")
		}
		c := p.advance()
		if c == '"' {
			// "" is an escaped quote inside a string.
			if p.pos < len(p.src) && p.peek() == '"' {
				p.advance()
				b.WriteByte('"')
				continue
			}
			return &Node{Kind: KindString, Text: b.String(), Line: line, Col: col}, nil
		}
		b.WriteByte(c)
	}
}

func (p *Parser) parseQuotedSymbol(line, col int) (*Node, error) {
	p.advance() // opening bar
	start := p.pos
	for p.pos < len(p.src) {
		if p.peek() == '|' {
			text := p.src[start:p.pos]
			p.advance()
			return &Node{Kind: KindSymbol, Text: text, Line: line, Col: col}, nil
		}
		if p.peek() == '\\' {
			return nil, p.errf("backslash not allowed in quoted symbol")
		}
		p.advance()
	}
	return nil, p.errf("unterminated quoted symbol")
}

func (p *Parser) parseHashLiteral(line, col int) (*Node, error) {
	p.advance() // '#'
	if p.pos >= len(p.src) {
		return nil, p.errf("dangling '#'")
	}
	switch p.peek() {
	case 'x':
		p.advance()
		start := p.pos
		for p.pos < len(p.src) && isHexDigit(p.peek()) {
			p.advance()
		}
		if p.pos == start {
			return nil, p.errf("empty hexadecimal literal")
		}
		return &Node{Kind: KindHex, Text: "#x" + p.src[start:p.pos], Line: line, Col: col}, nil
	case 'b':
		p.advance()
		start := p.pos
		for p.pos < len(p.src) && (p.peek() == '0' || p.peek() == '1') {
			p.advance()
		}
		if p.pos == start {
			return nil, p.errf("empty binary literal")
		}
		return &Node{Kind: KindBinary, Text: "#b" + p.src[start:p.pos], Line: line, Col: col}, nil
	default:
		return nil, p.errf("unknown literal prefix #%c", p.peek())
	}
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (p *Parser) parseNumber(line, col int) (*Node, error) {
	start := p.pos
	for p.pos < len(p.src) && p.peek() >= '0' && p.peek() <= '9' {
		p.advance()
	}
	// Decimal: digits '.' digits
	if p.pos < len(p.src) && p.peek() == '.' {
		p.advance()
		fracStart := p.pos
		for p.pos < len(p.src) && p.peek() >= '0' && p.peek() <= '9' {
			p.advance()
		}
		if p.pos == fracStart {
			return nil, p.errf("decimal literal missing fractional digits")
		}
		return &Node{Kind: KindDecimal, Text: p.src[start:p.pos], Line: line, Col: col}, nil
	}
	return &Node{Kind: KindNumeral, Text: p.src[start:p.pos], Line: line, Col: col}, nil
}
