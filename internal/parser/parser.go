// Package parser implements a small text syntax for the tables and queries
// of this library, used by the command-line tools and the examples.
//
// Table syntax (one directive per line, '#' starts a comment):
//
//	table Takes arity 2
//	row 'Alice', x
//	row 'Bob',   x   | x = 'phys' || x = 'chem'
//	row 'Theo',  'math' | t = 1
//	dom  x = {'math','phys','chem'}
//	dist x = {'math':0.3, 'phys':0.3, 'chem':0.4}
//	dist t = {0:0.15, 1:0.85}
//
// Cell and condition terms are integers, strings, the boolean literals
// true/false, the null literal, or variable names. A string is written
// between single quotes, or as a double-quoted Go string literal ("it's\n")
// when it holds a quote, a line break or bytes that are not UTF-8.
// Directives apply in order: a "dist" directive sets the variable's domain
// to the distribution's support, and a later "dom" directive for the same
// variable replaces that domain. A catalog script (ParseCatalog) is one or
// more such table descriptions concatenated in a single stream, each
// starting with its own "table" directive.
//
// Script, AppendScript and PatchScript write tables and patches back in this
// syntax, canonically: parsing what they write rebuilds the same rows,
// condition trees, domains and probabilities, bit for bit. It is the one
// form in which tables are persisted, replicated and served.
//
// Query syntax (expression string):
//
//	project[1,2]( select[$1 = 'phys' && $2 != 3]( R ) )
//	R join[$2 = $3] R
//	R union R,  R minus R,  R intersect R,  R x R
//
// Columns in predicates are written $1, $2, ... (1-based).
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"uncertaindb/internal/value"
)

// lexeme kinds for the shared tokenizer.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	input string
	pos   int
	toks  []token
	idx   int
}

// unicodeSymbols are the operator spellings beyond ASCII; canonicalSymbol
// maps them to their ASCII forms.
var unicodeSymbols = []string{"∧", "∨", "¬", "≠"}

// matchSymbol returns the longest symbol s starts with, or "".
func matchSymbol(s string) string {
	if s[0] >= utf8.RuneSelf {
		return unicodeSymbol(s)
	}
	if len(s) >= 2 {
		switch s[:2] {
		case "&&", "||", "!=", ">=", "<=":
			return s[:2]
		}
	}
	if strings.IndexByte("=<>()[]{},:|$!", s[0]) >= 0 {
		return s[:1]
	}
	return ""
}

func lex(input string) (*lexer, error) {
	l := &lexer{}
	if err := l.reset(input); err != nil {
		return nil, err
	}
	return l, nil
}

// reset tokenizes input into the lexer, reusing its token buffer: a script
// parser lexes every line with one lexer.
func (l *lexer) reset(input string) error {
	l.input, l.toks, l.idx = input, l.toks[:0], 0
	i := 0
	for i < len(input) {
		c, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '#':
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case c == '\'':
			j := i + 1
			for j < len(input) && input[j] != '\'' {
				j++
			}
			if j >= len(input) {
				return fmt.Errorf("parser: unterminated string at offset %d", i)
			}
			l.toks = append(l.toks, token{tokString, input[i+1 : j], i})
			i = j + 1
		case c == '"':
			quoted, err := strconv.QuotedPrefix(input[i:])
			if err != nil {
				return fmt.Errorf("parser: bad quoted string at offset %d", i)
			}
			s, _ := strconv.Unquote(quoted)
			l.toks = append(l.toks, token{tokString, s, i})
			i += len(quoted)
		case c == '-' || unicode.IsDigit(c):
			j := i + 1
			seenDot := false
			for j < len(input) {
				d := input[j]
				if d >= '0' && d <= '9' {
					j++
					continue
				}
				if d == '.' && !seenDot && j+1 < len(input) && input[j+1] >= '0' && input[j+1] <= '9' {
					seenDot = true
					j++
					continue
				}
				break
			}
			l.toks = append(l.toks, token{tokNumber, input[i:j], i})
			i = j
		case unicode.IsLetter(c) && unicodeSymbol(input[i:]) == "" || c == '_':
			j := i + size
			for j < len(input) {
				r, rs := utf8.DecodeRuneInString(input[j:])
				if !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_') || unicodeSymbol(input[j:]) != "" {
					break
				}
				j += rs
			}
			l.toks = append(l.toks, token{tokIdent, input[i:j], i})
			i = j
		default:
			sym := matchSymbol(input[i:])
			if sym == "" {
				return fmt.Errorf("parser: unexpected character %q at offset %d", c, i)
			}
			l.toks = append(l.toks, token{tokSymbol, canonicalSymbol(sym), i})
			i += len(sym)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", len(input)})
	return nil
}

// unicodeSymbol returns the unicode operator symbol the input starts with,
// or "". unicode.IsLetter would otherwise misclassify some of them as
// identifier characters.
func unicodeSymbol(s string) string {
	for _, sym := range unicodeSymbols {
		if strings.HasPrefix(s, sym) {
			return sym
		}
	}
	return ""
}

// canonicalSymbol maps unicode operator spellings to their ASCII canonical
// forms so that the parsers only deal with one spelling.
func canonicalSymbol(s string) string {
	switch s {
	case "∧":
		return "&&"
	case "∨":
		return "||"
	case "¬":
		return "!"
	case "≠":
		return "!="
	default:
		return s
	}
}

func (l *lexer) peek() token { return l.toks[l.idx] }

func (l *lexer) next() token {
	t := l.toks[l.idx]
	if l.idx < len(l.toks)-1 {
		l.idx++
	}
	return t
}

func (l *lexer) expectSymbol(s string) error {
	t := l.next()
	if t.kind != tokSymbol || t.text != s {
		return fmt.Errorf("parser: expected %q at offset %d, got %q", s, t.pos, t.text)
	}
	return nil
}

func (l *lexer) acceptSymbol(s string) bool {
	t := l.peek()
	if t.kind == tokSymbol && t.text == s {
		l.next()
		return true
	}
	return false
}

func (l *lexer) acceptIdent(s string) bool {
	t := l.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, s) {
		l.next()
		return true
	}
	return false
}

// ParseValueLiteral parses one standalone value literal — an integer, a
// quoted string, true/false or null — the same literal syntax dist directives
// and query constants use. The what-if "distributions" override on
// /v1/query keys its outcome values in this syntax.
func ParseValueLiteral(s string) (value.Value, error) {
	lx, err := lex(s)
	if err != nil {
		return value.Null, err
	}
	v, ok := parseValue(lx.next())
	if !ok {
		return value.Null, fmt.Errorf("parser: %q is not a value literal (want integer, 'string', true, false or null)", s)
	}
	if t := lx.peek(); t.kind != tokEOF {
		return value.Null, fmt.Errorf("parser: trailing input %q after value literal", t.text)
	}
	return v, nil
}

// parseValue parses a literal value: integer, quoted string or boolean.
// Fractional numbers are not domain values (they only appear as
// probabilities in dist directives).
func parseValue(t token) (value.Value, bool) {
	switch t.kind {
	case tokNumber:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Null, false
		}
		return value.Int(n), true
	case tokString:
		return value.Str(t.text), true
	case tokIdent:
		if strings.EqualFold(t.text, "true") {
			return value.Bool(true), true
		}
		if strings.EqualFold(t.text, "false") {
			return value.Bool(false), true
		}
		if strings.EqualFold(t.text, "null") {
			return value.Null, true
		}
	}
	return value.Null, false
}
