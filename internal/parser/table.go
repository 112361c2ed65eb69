package parser

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

// ParsedTable is the result of parsing a table description: a (probabilistic)
// c-table plus its name. When the description contains no "dist" directives
// the table is a plain (finite-domain) c-table and PCTable carries no
// distributions.
type ParsedTable struct {
	Name    string
	CTable  *ctable.CTable
	PCTable *pctable.PCTable
	// HasDistributions reports whether any dist directive appeared.
	HasDistributions bool
}

// MaxLineBytes bounds one line of a table, catalog or patch script. It is
// the bound the WAL puts on one record, so every row a log record or a
// snapshot carries parses back.
const MaxLineBytes = 64 << 20

// ParseTable reads a table description from r (see the package comment for
// the syntax) and returns the parsed table. A script declaring more than one
// table is an error; use ParseCatalog for those.
func ParseTable(r io.Reader) (*ParsedTable, error) {
	tables, _, err := parseScript(r)
	if err == nil && len(tables) != 1 {
		err = fmt.Errorf("parser: script declares %d tables, want one", len(tables))
	}
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// ParseTableString is ParseTable over a string.
func ParseTableString(s string) (*ParsedTable, error) { return ParseTable(strings.NewReader(s)) }

// ParseCatalog reads a catalog script: one or more table descriptions in the
// ParseTable syntax concatenated in a single stream, each starting with its
// own "table <name> arity <n>" directive. It returns the parsed tables in
// declaration order. Duplicate table names are an error, as is any content
// before the first table directive.
func ParseCatalog(r io.Reader) ([]*ParsedTable, error) {
	tables, block, err := parseScript(r)
	if err != nil && block > 0 {
		err = fmt.Errorf("parser: table block starting at line %d: %w", block, err)
	}
	return tables, err
}

// ParseCatalogString is ParseCatalog over a string.
func ParseCatalogString(s string) ([]*ParsedTable, error) {
	return ParseCatalog(strings.NewReader(s))
}

// parseScript reads the tables of a table or catalog script in one pass. On
// error, block is the line of the failing table's "table" directive (0 when
// the error lies outside any table).
func parseScript(r io.Reader) (tables []*ParsedTable, block int, err error) {
	lx := &lexer{}
	seen := map[string]bool{}
	err = eachDirective(r, func(line int, word, rest string) error {
		if !strings.EqualFold(word, "table") {
			if len(tables) == 0 {
				return fmt.Errorf("%s before the first table declaration", word)
			}
			return tables[len(tables)-1].directive(lx, word, rest)
		}
		block = line
		fields := strings.Fields(rest)
		if len(fields) != 3 || !strings.EqualFold(fields[1], "arity") {
			return fmt.Errorf("expected \"table <name> arity <n>\"")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad arity %q", fields[2])
		}
		if seen[fields[0]] {
			return fmt.Errorf("duplicate table name %q", fields[0])
		}
		seen[fields[0]] = true
		tab := ctable.New(n)
		tables = append(tables, &ParsedTable{Name: fields[0], CTable: tab, PCTable: pctable.New(tab)})
		return nil
	})
	if err == nil && len(tables) == 0 {
		err = fmt.Errorf("parser: no table declaration found")
	}
	if err != nil {
		return nil, block, err
	}
	return tables, 0, nil
}

// eachDirective calls f with the line number, the directive word and the
// rest of every line of r that is not blank or a "#" comment, and prefixes
// the first error f returns with its line.
func eachDirective(r io.Reader, f func(line int, word, rest string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLineBytes)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		word, rest := line, ""
		if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
			word, rest = line[:i], strings.TrimSpace(line[i:])
		}
		if err := f(n, word, rest); err != nil {
			return fmt.Errorf("parser: line %d: %w", n, err)
		}
	}
	return sc.Err()
}

// directive applies one row, dom or dist directive to the table, lexing
// with lx.
func (pt *ParsedTable) directive(lx *lexer, word, rest string) error {
	switch strings.ToLower(word) {
	case "row":
		terms, cond, err := parseRow(lx, rest, pt.CTable.Arity())
		if err != nil {
			return err
		}
		pt.CTable.AdoptRow(terms, cond) // parseRow built terms for this row alone
	case "dom":
		varName, vals, _, err := parseValueList(lx, rest, "domain", false)
		if err != nil {
			return err
		}
		pt.CTable.SetDomain(varName, value.NewDomain(vals...))
	case "dist":
		varName, space, err := parseDist(lx, rest)
		if err != nil {
			return err
		}
		pt.PCTable.SetSpace(varName, space)
		pt.HasDistributions = true
	default:
		return fmt.Errorf("unknown directive %q", word)
	}
	return nil
}

// parseRow parses "t1, t2, ..., tn [| condition]". A negative arity accepts
// any number of cells.
func parseRow(lx *lexer, s string, arity int) ([]condition.Term, condition.Condition, error) {
	if err := lx.reset(s); err != nil {
		return nil, nil, err
	}
	if t := lx.peek(); t.kind == tokEOF || (t.kind == tokSymbol && t.text == "|") {
		return nil, nil, fmt.Errorf("row has no cells")
	}
	terms := make([]condition.Term, 0, min(max(arity, 1), 64))
	for {
		term, err := tokenToTerm(lx.next(), "row")
		if err != nil {
			return nil, nil, err
		}
		terms = append(terms, term)
		if !lx.acceptSymbol(",") {
			break
		}
	}
	var cond condition.Condition
	if lx.acceptSymbol("|") && lx.peek().kind != tokEOF {
		var err error
		if cond, err = parseCondOr(lx); err != nil {
			return nil, nil, err
		}
	}
	if t := lx.peek(); t.kind != tokEOF {
		return nil, nil, fmt.Errorf("unexpected %q in row", t.text)
	}
	if arity >= 0 && len(terms) != arity {
		return nil, nil, fmt.Errorf("row has %d cells, table arity is %d", len(terms), arity)
	}
	return terms, cond, nil
}

// tokenToTerm reads a cell or condition operand: a value literal or a
// variable.
func tokenToTerm(t token, where string) (condition.Term, error) {
	if v, ok := parseValue(t); ok {
		return condition.Const(v), nil
	}
	if t.kind == tokIdent {
		return condition.Var(t.text), nil
	}
	return condition.Term{}, fmt.Errorf("parser: unexpected token %q in %s", t.text, where)
}

// parseDist parses "x = {v1:p1, v2:p2, ...}" into a probability space.
func parseDist(lx *lexer, s string) (string, *prob.Space, error) {
	name, vals, ps, err := parseValueList(lx, s, "distribution", true)
	if err != nil {
		return "", nil, err
	}
	dist := make(map[value.Value]float64, len(vals))
	for i, v := range vals {
		dist[v] = ps[i]
	}
	space, err := prob.NewValueSpace(dist)
	return name, space, err
}

// parseValueList parses "x = {v1, v2, ...}", or "x = {v1:p1, v2:p2, ...}"
// with probs set, into the variable name, the values and their
// probabilities.
func parseValueList(lx *lexer, s, what string, probs bool) (string, []value.Value, []float64, error) {
	if err := lx.reset(s); err != nil {
		return "", nil, nil, err
	}
	name := lx.next()
	if name.kind != tokIdent {
		return "", nil, nil, fmt.Errorf("expected variable name, got %q", name.text)
	}
	if err := lx.expectSymbol("="); err != nil {
		return "", nil, nil, err
	}
	if err := lx.expectSymbol("{"); err != nil {
		return "", nil, nil, err
	}
	var vals []value.Value
	var ps []float64
	for !lx.acceptSymbol("}") {
		if len(vals) > 0 {
			if err := lx.expectSymbol(","); err != nil {
				return "", nil, nil, err
			}
			if lx.acceptSymbol("}") {
				break
			}
		}
		t := lx.next()
		v, ok := parseValue(t)
		if !ok {
			return "", nil, nil, fmt.Errorf("expected value in %s, got %q", what, t.text)
		}
		vals = append(vals, v)
		if probs {
			if err := lx.expectSymbol(":"); err != nil {
				return "", nil, nil, err
			}
			p, err := parseProbability(lx)
			if err != nil {
				return "", nil, nil, err
			}
			ps = append(ps, p)
		}
	}
	if len(vals) == 0 {
		return "", nil, nil, fmt.Errorf("empty %s for %s", what, name.text)
	}
	return name.text, vals, ps, nil
}

// parseProbability reads a probability literal such as "0.3" or "1".
func parseProbability(lx *lexer) (float64, error) {
	t := lx.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("expected probability, got %q", t.text)
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("probability %g out of range", f)
	}
	return f, nil
}
