package parser

import (
	"fmt"
	"strconv"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ra"
)

// ParseCondition parses a c-table condition such as
//
//	x = y && z != 2 || !(t = true)
//
// Operator precedence: ! binds tightest, then &&, then ||. The unicode
// forms ∧, ∨, ¬ and ≠ are accepted as well.
func ParseCondition(s string) (condition.Condition, error) {
	lx, err := lex(s)
	if err != nil {
		return nil, err
	}
	c, err := parseCondOr(lx)
	if err != nil {
		return nil, err
	}
	if lx.peek().kind != tokEOF {
		return nil, fmt.Errorf("parser: trailing input %q in condition", lx.peek().text)
	}
	return c, nil
}

func parseCondOr(lx *lexer) (condition.Condition, error) {
	left, err := parseCondAnd(lx)
	if err != nil {
		return nil, err
	}
	parts := []condition.Condition{left}
	for lx.acceptSymbol("||") {
		right, err := parseCondAnd(lx)
		if err != nil {
			return nil, err
		}
		parts = append(parts, right)
	}
	return condition.Or(parts...), nil
}

func parseCondAnd(lx *lexer) (condition.Condition, error) {
	left, err := parseCondUnary(lx)
	if err != nil {
		return nil, err
	}
	parts := []condition.Condition{left}
	for lx.acceptSymbol("&&") {
		right, err := parseCondUnary(lx)
		if err != nil {
			return nil, err
		}
		parts = append(parts, right)
	}
	return condition.And(parts...), nil
}

func parseCondUnary(lx *lexer) (condition.Condition, error) {
	if lx.acceptSymbol("!") || lx.acceptSymbol("¬") {
		inner, err := parseCondUnary(lx)
		if err != nil {
			return nil, err
		}
		return condition.Not(inner), nil
	}
	if lx.acceptSymbol("(") {
		inner, err := parseCondOr(lx)
		if err != nil {
			return nil, err
		}
		if err := lx.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return parseCondAtom(lx)
}

func parseCondAtom(lx *lexer) (condition.Condition, error) {
	t := lx.next()
	// Boolean constants "true"/"false" standing alone.
	if t.kind == tokIdent && (t.text == "true" || t.text == "false") {
		// Could be a bare constant or the left side of a comparison against a
		// variable; a bare constant is only valid if no comparison follows.
		if lx.peek().kind == tokSymbol && (lx.peek().text == "=" || lx.peek().text == "!=" || lx.peek().text == "≠") {
			return parseComparisonFrom(lx, t)
		}
		if t.text == "true" {
			return condition.True(), nil
		}
		return condition.False(), nil
	}
	return parseComparisonFrom(lx, t)
}

func parseComparisonFrom(lx *lexer, first token) (condition.Condition, error) {
	left, err := tokenToTerm(first, "condition")
	if err != nil {
		return nil, err
	}
	op := lx.next()
	if op.kind != tokSymbol || (op.text != "=" && op.text != "!=" && op.text != "≠") {
		return nil, fmt.Errorf("parser: expected = or != in condition, got %q", op.text)
	}
	right, err := tokenToTerm(lx.next(), "condition")
	if err != nil {
		return nil, err
	}
	if op.text == "=" {
		return condition.Eq(left, right), nil
	}
	return condition.Neq(left, right), nil
}

// ParseQuery parses a relational algebra expression. Grammar (case
// insensitive keywords):
//
//	query   := term { ("union" | "minus" | "intersect") term }
//	term    := factor { ("x" | "join" "[" pred "]") factor }
//	factor  := name
//	         | "select" "[" pred "]" "(" query ")"
//	         | "project" "[" cols "]" "(" query ")"
//	         | "(" query ")"
//	pred    := boolean combination of "$i op ($j | literal)" with &&, ||, !
//	cols    := 1-based column indexes separated by commas
func ParseQuery(s string) (ra.Query, error) {
	lx, err := lex(s)
	if err != nil {
		return nil, err
	}
	q, err := parseQueryUnion(lx)
	if err != nil {
		return nil, err
	}
	if lx.peek().kind != tokEOF {
		return nil, fmt.Errorf("parser: trailing input %q in query", lx.peek().text)
	}
	return q, nil
}

func parseQueryUnion(lx *lexer) (ra.Query, error) {
	left, err := parseQueryJoin(lx)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case lx.acceptIdent("union"):
			right, err := parseQueryJoin(lx)
			if err != nil {
				return nil, err
			}
			left = ra.Union(left, right)
		case lx.acceptIdent("minus"):
			right, err := parseQueryJoin(lx)
			if err != nil {
				return nil, err
			}
			left = ra.Diff(left, right)
		case lx.acceptIdent("intersect"):
			right, err := parseQueryJoin(lx)
			if err != nil {
				return nil, err
			}
			left = ra.Intersect(left, right)
		default:
			return left, nil
		}
	}
}

func parseQueryJoin(lx *lexer) (ra.Query, error) {
	left, err := parseQueryFactor(lx)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case lx.peek().kind == tokIdent && lx.peek().text == "x":
			lx.next()
			right, err := parseQueryFactor(lx)
			if err != nil {
				return nil, err
			}
			left = ra.Cross(left, right)
		case lx.acceptIdent("join"):
			if err := lx.expectSymbol("["); err != nil {
				return nil, err
			}
			pred, err := parsePredOr(lx)
			if err != nil {
				return nil, err
			}
			if err := lx.expectSymbol("]"); err != nil {
				return nil, err
			}
			right, err := parseQueryFactor(lx)
			if err != nil {
				return nil, err
			}
			left = ra.Join(left, right, pred)
		default:
			return left, nil
		}
	}
}

func parseQueryFactor(lx *lexer) (ra.Query, error) {
	t := lx.peek()
	switch {
	case t.kind == tokSymbol && t.text == "(":
		lx.next()
		q, err := parseQueryUnion(lx)
		if err != nil {
			return nil, err
		}
		if err := lx.expectSymbol(")"); err != nil {
			return nil, err
		}
		return q, nil
	case t.kind == tokIdent && (t.text == "select" || t.text == "project"):
		lx.next()
		if err := lx.expectSymbol("["); err != nil {
			return nil, err
		}
		if t.text == "select" {
			pred, err := parsePredOr(lx)
			if err != nil {
				return nil, err
			}
			if err := lx.expectSymbol("]"); err != nil {
				return nil, err
			}
			if err := lx.expectSymbol("("); err != nil {
				return nil, err
			}
			inner, err := parseQueryUnion(lx)
			if err != nil {
				return nil, err
			}
			if err := lx.expectSymbol(")"); err != nil {
				return nil, err
			}
			return ra.Select(pred, inner), nil
		}
		cols, err := parseCols(lx)
		if err != nil {
			return nil, err
		}
		if err := lx.expectSymbol("]"); err != nil {
			return nil, err
		}
		if err := lx.expectSymbol("("); err != nil {
			return nil, err
		}
		inner, err := parseQueryUnion(lx)
		if err != nil {
			return nil, err
		}
		if err := lx.expectSymbol(")"); err != nil {
			return nil, err
		}
		return ra.Project(cols, inner), nil
	case t.kind == tokIdent:
		lx.next()
		return ra.Rel(t.text), nil
	default:
		return nil, fmt.Errorf("parser: unexpected token %q in query", t.text)
	}
}

func parseCols(lx *lexer) ([]int, error) {
	var cols []int
	for {
		t := lx.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("parser: expected column index, got %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("parser: bad column index %q", t.text)
		}
		cols = append(cols, n-1)
		if lx.acceptSymbol(",") {
			continue
		}
		return cols, nil
	}
}

func parsePredOr(lx *lexer) (ra.Predicate, error) {
	left, err := parsePredAnd(lx)
	if err != nil {
		return nil, err
	}
	parts := []ra.Predicate{left}
	for lx.acceptSymbol("||") {
		right, err := parsePredAnd(lx)
		if err != nil {
			return nil, err
		}
		parts = append(parts, right)
	}
	return ra.OrOf(parts...), nil
}

func parsePredAnd(lx *lexer) (ra.Predicate, error) {
	left, err := parsePredUnary(lx)
	if err != nil {
		return nil, err
	}
	parts := []ra.Predicate{left}
	for lx.acceptSymbol("&&") {
		right, err := parsePredUnary(lx)
		if err != nil {
			return nil, err
		}
		parts = append(parts, right)
	}
	return ra.AndOf(parts...), nil
}

func parsePredUnary(lx *lexer) (ra.Predicate, error) {
	if lx.acceptSymbol("!") || lx.acceptSymbol("¬") {
		inner, err := parsePredUnary(lx)
		if err != nil {
			return nil, err
		}
		return ra.NotOf(inner), nil
	}
	if lx.acceptSymbol("(") {
		inner, err := parsePredOr(lx)
		if err != nil {
			return nil, err
		}
		if err := lx.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return parsePredAtom(lx)
}

func parsePredAtom(lx *lexer) (ra.Predicate, error) {
	left, err := parsePredTerm(lx)
	if err != nil {
		return nil, err
	}
	opTok := lx.next()
	var op ra.CmpOp
	switch opTok.text {
	case "=":
		op = ra.OpEq
	case "!=", "≠":
		op = ra.OpNe
	case "<":
		op = ra.OpLt
	case "<=":
		op = ra.OpLe
	case ">":
		op = ra.OpGt
	case ">=":
		op = ra.OpGe
	default:
		return nil, fmt.Errorf("parser: expected comparison operator, got %q", opTok.text)
	}
	right, err := parsePredTerm(lx)
	if err != nil {
		return nil, err
	}
	return ra.Compare(left, op, right), nil
}

func parsePredTerm(lx *lexer) (ra.Term, error) {
	if lx.acceptSymbol("$") {
		t := lx.next()
		if t.kind != tokNumber {
			return ra.Term{}, fmt.Errorf("parser: expected column number after $, got %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return ra.Term{}, fmt.Errorf("parser: bad column reference $%s", t.text)
		}
		return ra.Col(n - 1), nil
	}
	t := lx.next()
	if v, ok := parseValue(t); ok {
		return ra.Const(v), nil
	}
	return ra.Term{}, fmt.Errorf("parser: unexpected token %q in predicate", t.text)
}
