package parser

import (
	"reflect"
	"testing"
)

// FuzzParse exercises the condition parser with arbitrary input and checks
// the round-trip property: any condition that parses must re-parse from its
// canonical rendering to the identical tree, and the rendering must be a
// fixpoint. The query and table parsers are fed the same input purely to
// catch panics.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"x = 1",
		"x != 'a' && (y = true || !(z = 2))",
		"¬(x ≠ y) ∧ t = false",
		"true",
		"false || x = -3",
		"a = b && b = c && c = a",
		"x = 'it''s'",
		"x = \"it's\\n\" || null != y",
		"project[1](select[$2 = 'phys'](Takes))",
		"table T arity 1\nrow x\ndist x = {1:0.5, 2:0.5}\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Panic detection only — errors are expected on arbitrary input.
		ParseQuery(s)
		ParseTableString(s)

		c, err := ParseCondition(s)
		if err != nil {
			return
		}
		rendered := string(appendCondition(nil, c, false))
		c2, err := ParseCondition(rendered)
		if err != nil {
			t.Fatalf("round-trip parse failed for %q (rendered from %q): %v", rendered, s, err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("%q re-parses to another tree (input %q)", rendered, s)
		}
		if again := string(appendCondition(nil, c2, false)); again != rendered {
			t.Fatalf("rendering not a fixpoint: %q re-parses to %q (input %q)", rendered, again, s)
		}
	})
}
