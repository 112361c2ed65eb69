package condition

import (
	"fmt"

	"uncertaindb/internal/value"
)

// DomainProvider supplies the finite domain over which a variable ranges.
// Finite-domain c-tables (Definition 6) attach a domain to each variable;
// plain c-tables over the infinite D are handled by callers that choose a
// sufficiently large active domain.
type DomainProvider interface {
	// DomainOf returns the domain of x. It must be non-nil and non-empty
	// for every variable passed to the enumeration helpers.
	DomainOf(x Variable) *value.Domain
}

// MapDomains is a DomainProvider backed by a map, with an optional default
// domain for variables not present in the map.
type MapDomains struct {
	Domains map[Variable]*value.Domain
	Default *value.Domain
}

// NewMapDomains builds a MapDomains with no default.
func NewMapDomains() *MapDomains {
	return &MapDomains{Domains: make(map[Variable]*value.Domain)}
}

// Set assigns a domain to a variable and returns the provider for chaining.
func (m *MapDomains) Set(x string, d *value.Domain) *MapDomains {
	m.Domains[Variable(x)] = d
	return m
}

// WithDefault sets the default domain returned for unknown variables.
func (m *MapDomains) WithDefault(d *value.Domain) *MapDomains {
	m.Default = d
	return m
}

// DomainOf implements DomainProvider.
func (m *MapDomains) DomainOf(x Variable) *value.Domain {
	if d, ok := m.Domains[x]; ok {
		return d
	}
	return m.Default
}

// UniformDomains is a DomainProvider that assigns the same domain to every
// variable (e.g. the boolean domain for boolean c-tables, or an active
// domain chosen for valuation enumeration of plain c-tables).
type UniformDomains struct{ Domain *value.Domain }

// DomainOf implements DomainProvider.
func (u UniformDomains) DomainOf(Variable) *value.Domain { return u.Domain }

// ForEachValuation enumerates all total valuations of the given variables
// over their domains, invoking fn for each; enumeration stops early when fn
// returns false. The valuation passed to fn is reused across calls — copy it
// if it must be retained.
func ForEachValuation(vars []Variable, dom DomainProvider, fn func(Valuation) bool) {
	doms := make([]*value.Domain, len(vars))
	for i, x := range vars {
		d := dom.DomainOf(x)
		if d == nil || d.Size() == 0 {
			panic(fmt.Sprintf("condition: no domain for variable %s", x))
		}
		doms[i] = d
	}
	v := make(Valuation, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return fn(v)
		}
		for _, x := range doms[i].Values() {
			v[vars[i]] = x
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}
