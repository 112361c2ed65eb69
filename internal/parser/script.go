package parser

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

// Script renders a table as the table script ParseTable reads back, under
// the given name. The rendering is canonical — a pure function of the table,
// written densely (a space only after the directive word):
//
//   - rows in table order, condition trees parenthesized so that parsing
//     rebuilds the same tree (a root condition of true is left out);
//   - every declared distribution, sorted by variable, outcomes in canonical
//     value order, probabilities in the shortest decimal that parses back
//     to the same float64;
//   - then a dom directive for every variable whose declared domain is not
//     exactly its distribution's support, sorted by variable.
//
// Concatenated scripts of distinct tables form a catalog script.
func Script(name string, t *pctable.PCTable) string { return string(AppendScript(nil, name, t)) }

// AppendScript appends Script(name, t) to b.
func AppendScript(b []byte, name string, t *pctable.PCTable) []byte {
	tab := t.Table()
	b = AppendHeader(b, name, tab.Arity())
	for _, r := range tab.Rows() {
		b = AppendRow(b, r.Terms, r.Cond)
	}
	var vars []condition.Variable
	t.EachDist(func(x condition.Variable, _ *prob.Space) { vars = append(vars, x) })
	tab.EachDomain(func(x condition.Variable, _ *value.Domain) { vars = append(vars, x) })
	slices.Sort(vars)
	return AppendDecls(b, t, slices.Compact(vars))
}

// AppendHeader appends the directive that opens the script of a table.
func AppendHeader(b []byte, name string, arity int) []byte {
	return fmt.Appendf(b, "table %s arity %d\n", name, arity)
}

// AppendRow appends the row directive of one table row.
func AppendRow(b []byte, terms []condition.Term, cond condition.Condition) []byte {
	return appendRow(append(b, "row "...), terms, cond)
}

// AppendDecls appends t's declarations of the given variables, which must be
// sorted: the dist directive of each that has a distribution, then the dom
// directive of each whose declared domain is not exactly its distribution's
// support.
func AppendDecls(b []byte, t *pctable.PCTable, vars []condition.Variable) []byte {
	for _, x := range vars {
		if d := t.Dist(x); d != nil {
			b = appendDist(b, string(x), d)
		}
	}
	for _, x := range vars {
		if dom := t.Table().DomainOf(x); dom != nil && !isSupport(dom, t.Dist(x)) {
			b = append(append(b, "dom "...), x...)
			for i, v := range dom.Values() {
				b = appendValue(append(b, listSep[min(i, 1)]...), v)
			}
			b = append(b, "}\n"...)
		}
	}
	return b
}

// PatchScript renders a patch as the patch script ParsePatch reads back:
// deletes, then upserts, each in patch order, then distributions sorted by
// variable. The empty patch renders as the empty string.
func PatchScript(p *pctable.Patch) string { return string(AppendPatchScript(nil, p)) }

// AppendPatchScript appends PatchScript(p) to b.
func AppendPatchScript(b []byte, p *pctable.Patch) []byte {
	for _, r := range p.Deletes {
		b = appendRow(append(b, "delete "...), r.Terms, r.Cond)
	}
	for _, r := range p.Upserts {
		b = appendRow(append(b, "upsert "...), r.Terms, r.Cond)
	}
	dists := append([]pctable.DistPatch(nil), p.Dists...)
	sort.SliceStable(dists, func(i, j int) bool { return dists[i].Var < dists[j].Var })
	for _, dp := range dists {
		b = appendDist(b, dp.Var, dp.Dist)
	}
	return b
}

// CheckScriptable reports an error unless Script writes the table name and
// every variable so that they parse back: the name one word of UTF-8 (what
// a JSON body carries intact), each variable an identifier that is not a
// literal. Parsed tables pass unless their name is not UTF-8.
func CheckScriptable(name string, t *pctable.PCTable) error {
	if name == "" || strings.ContainsFunc(name, unicode.IsSpace) || !utf8.ValidString(name) {
		return fmt.Errorf("parser: table name %q must be one word of UTF-8", name)
	}
	vars := t.Vars()
	t.EachDomain(func(x condition.Variable, _ *value.Domain) { vars = append(vars, x) })
	return checkVars(vars)
}

// CheckPatchScriptable is CheckScriptable for the rows and distributions of
// a patch.
func CheckPatchScriptable(p *pctable.Patch) error {
	var vars []condition.Variable
	for _, r := range slices.Concat(p.Deletes, p.Upserts) {
		for _, t := range r.Terms {
			if t.IsVar {
				vars = append(vars, t.Var)
			}
		}
		if r.Cond != nil {
			vars = append(vars, condition.Vars(r.Cond)...)
		}
	}
	for _, dp := range p.Dists {
		vars = append(vars, condition.Variable(dp.Var))
	}
	return checkVars(vars)
}

func checkVars(vars []condition.Variable) error {
	for _, x := range vars {
		lx, err := lex(string(x))
		if err != nil || len(lx.toks) != 2 || lx.toks[0].kind != tokIdent || lx.toks[0].text != string(x) {
			return fmt.Errorf("parser: variable name %q is not an identifier", x)
		}
		if _, lit := parseValue(lx.toks[0]); lit {
			return fmt.Errorf("parser: variable name %q reads as a literal", x)
		}
	}
	return nil
}

// isSupport reports whether dom is exactly the support of the distribution.
func isSupport(dom *value.Domain, space *prob.Space) bool {
	if space == nil || dom.Size() != space.Size() {
		return false
	}
	for i, o := range space.Outcomes() {
		if dom.At(i) != o.ValuePayload() {
			return false
		}
	}
	return true
}

// listSep opens a dom or dist value list (index 0) or separates two of its
// items (index 1).
var listSep = [2]string{"={", ","}

// appendRow appends the cells and condition of one row and a line break.
func appendRow(b []byte, terms []condition.Term, cond condition.Condition) []byte {
	for i, t := range terms {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendTerm(b, t)
	}
	if _, ok := cond.(condition.TrueCond); !ok && cond != nil {
		b = appendCondition(append(b, '|'), cond, false)
	}
	return append(b, '\n')
}

// appendDist appends one dist directive.
func appendDist(b []byte, x string, space *prob.Space) []byte {
	b = append(append(b, "dist "...), x...)
	for i, o := range space.Outcomes() {
		b = appendValue(append(b, listSep[min(i, 1)]...), o.ValuePayload())
		b = strconv.AppendFloat(append(b, ':'), o.P, 'f', -1, 64)
	}
	return append(b, "}\n"...)
}

// appendCondition renders a condition tree so that the condition parser
// rebuilds it: a junction nested in another junction is parenthesized, and a
// negation's operand always is. A junction of fewer than two conditions is
// written as what And or Or builds from them.
func appendCondition(b []byte, c condition.Condition, nested bool) []byte {
	var conds []condition.Condition
	sep := "&&"
	switch c := c.(type) {
	case nil, condition.TrueCond:
		return append(b, "true"...)
	case condition.FalseCond:
		return append(b, "false"...)
	case condition.Cmp:
		op := "="
		if c.Neq {
			op = "!="
		}
		return appendTerm(append(appendTerm(b, c.Left), op...), c.Right)
	case condition.NotCond:
		return append(appendCondition(append(b, "!("...), c.Cond, false), ')')
	case condition.AndCond:
		if conds = c.Conds; len(conds) == 0 {
			return append(b, "true"...)
		}
	case condition.OrCond:
		if conds, sep = c.Conds, "||"; len(conds) == 0 {
			return append(b, "false"...)
		}
	default:
		// The condition grammar is closed; anything else is a programming
		// error worth surfacing loudly.
		panic(fmt.Sprintf("parser: cannot render condition of type %T", c))
	}
	if len(conds) == 1 {
		return appendCondition(b, conds[0], nested)
	}
	if nested {
		b = append(b, '(')
	}
	for i, sub := range conds {
		if i > 0 {
			b = append(b, sep...)
		}
		b = appendCondition(b, sub, true)
	}
	if nested {
		b = append(b, ')')
	}
	return b
}

func appendTerm(b []byte, t condition.Term) []byte {
	if t.IsVar {
		return append(b, t.Var...)
	}
	return appendValue(b, t.Const)
}

// appendValue writes a value literal: strings between single quotes, or as
// a Go string literal when they hold a quote or a line break or are not
// UTF-8 (which a JSON body would not carry intact).
func appendValue(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		return strconv.AppendInt(b, v.AsInt(), 10)
	case value.KindBool:
		return strconv.AppendBool(b, v.AsBool())
	case value.KindString:
		s := v.AsString()
		if !utf8.ValidString(s) || strings.ContainsAny(s, "'\n\r") {
			return strconv.AppendQuote(b, s)
		}
		return append(append(append(b, '\''), s...), '\'')
	default:
		return append(b, "null"...)
	}
}
