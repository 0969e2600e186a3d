// Package rel implements the relational data model underlying CFD
// propagation: attribute domains (finite or infinite), relation schemas,
// database schemas, tuples, instances and databases.
//
// All attribute values are represented as strings; a Domain restricts the
// set of admissible strings. Finite domains are what make the "general
// setting" of the paper (Fan et al., VLDB 2008) computationally harder, so
// they are first-class here: every attribute carries a Domain and the
// decision procedures in internal/propagation consult it.
package rel

import (
	"fmt"
	"sort"
	"strings"
)

// Domain describes the set of values an attribute may take. The zero value
// is the unnamed infinite domain.
type Domain struct {
	Name   string   // informational, e.g. "string", "bool"
	Finite bool     // true if Values enumerates the whole domain
	Values []string // populated only when Finite
}

// Infinite returns the canonical unnamed infinite domain.
func Infinite() Domain { return Domain{Name: "string"} }

// FiniteDomain returns a finite domain over the given values. Duplicate
// values are removed and the result is sorted for determinism.
func FiniteDomain(name string, values ...string) Domain {
	seen := make(map[string]bool, len(values))
	uniq := make([]string, 0, len(values))
	for _, v := range values {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	sort.Strings(uniq)
	return Domain{Name: name, Finite: true, Values: uniq}
}

// Bool is the canonical two-valued finite domain.
func Bool() Domain { return FiniteDomain("bool", "0", "1") }

// Contains reports whether v is a member of the domain. Infinite domains
// contain every string.
func (d Domain) Contains(v string) bool {
	if !d.Finite {
		return true
	}
	i := sort.SearchStrings(d.Values, v)
	return i < len(d.Values) && d.Values[i] == v
}

// Size returns the number of values in a finite domain and -1 for an
// infinite domain.
func (d Domain) Size() int {
	if !d.Finite {
		return -1
	}
	return len(d.Values)
}

// Intersect returns the intersection of two domains. Intersecting with an
// infinite domain yields the other domain unchanged.
func (d Domain) Intersect(o Domain) Domain {
	switch {
	case !d.Finite:
		return o
	case !o.Finite:
		return d
	}
	var vals []string
	for _, v := range d.Values {
		if o.Contains(v) {
			vals = append(vals, v)
		}
	}
	name := d.Name
	if o.Name != "" && o.Name != d.Name {
		name = d.Name + "&" + o.Name
	}
	return Domain{Name: name, Finite: true, Values: vals}
}

func (d Domain) String() string {
	if !d.Finite {
		if d.Name == "" {
			return "infinite"
		}
		return d.Name
	}
	return fmt.Sprintf("{%s}", strings.Join(d.Values, ","))
}

// Attribute is a named column with a domain.
type Attribute struct {
	Name   string
	Domain Domain
}

// Schema is a relation schema: an ordered list of attributes with distinct
// names.
type Schema struct {
	Name  string
	Attrs []Attribute

	index map[string]int // attribute name -> position
}

// NewSchema builds a schema, validating that attribute names are non-empty
// and pairwise distinct.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("rel: schema name must be non-empty")
	}
	s := &Schema{Name: name, Attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("rel: schema %s: attribute %d has empty name", name, i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("rel: schema %s: duplicate attribute %q", name, a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests and
// static declarations.
func MustSchema(name string, attrs ...Attribute) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// InfiniteSchema builds a schema whose attributes all have the infinite
// domain — the common case for the paper's "infinite-domain setting".
func InfiniteSchema(name string, attrNames ...string) *Schema {
	attrs := make([]Attribute, len(attrNames))
	for i, n := range attrNames {
		attrs[i] = Attribute{Name: n, Domain: Infinite()}
	}
	return MustSchema(name, attrs...)
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// Index returns the position of the named attribute and whether it exists.
func (s *Schema) Index(attr string) (int, bool) {
	i, ok := s.index[attr]
	return i, ok
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// Domain returns the domain of the named attribute; the second result is
// false if the attribute does not exist.
func (s *Schema) Domain(attr string) (Domain, bool) {
	i, ok := s.index[attr]
	if !ok {
		return Domain{}, false
	}
	return s.Attrs[i].Domain, true
}

// HasFiniteAttr reports whether any attribute has a finite domain, i.e.
// whether the schema falls into the paper's "general setting".
func (s *Schema) HasFiniteAttr() bool {
	for _, a := range s.Attrs {
		if a.Domain.Finite {
			return true
		}
	}
	return false
}

func (s *Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		parts[i] = a.Name
		if a.Domain.Finite {
			parts[i] += ":" + a.Domain.String()
		}
	}
	return fmt.Sprintf("%s(%s)", s.Name, strings.Join(parts, ", "))
}

// DBSchema is a database schema: a set of relation schemas addressed by
// name.
type DBSchema struct {
	rels  map[string]*Schema
	order []string // insertion order, for deterministic iteration
}

// NewDBSchema builds a database schema over the given relations.
func NewDBSchema(rels ...*Schema) (*DBSchema, error) {
	db := &DBSchema{rels: make(map[string]*Schema, len(rels))}
	for _, r := range rels {
		if err := db.Add(r); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// MustDBSchema is NewDBSchema that panics on error.
func MustDBSchema(rels ...*Schema) *DBSchema {
	db, err := NewDBSchema(rels...)
	if err != nil {
		panic(err)
	}
	return db
}

// Add inserts a relation schema, rejecting duplicates.
func (db *DBSchema) Add(r *Schema) error {
	if r == nil {
		return fmt.Errorf("rel: nil relation schema")
	}
	if _, dup := db.rels[r.Name]; dup {
		return fmt.Errorf("rel: duplicate relation %q", r.Name)
	}
	db.rels[r.Name] = r
	db.order = append(db.order, r.Name)
	return nil
}

// Relation returns the named relation schema, or nil if absent.
func (db *DBSchema) Relation(name string) *Schema { return db.rels[name] }

// Relations returns all relation schemas in insertion order.
func (db *DBSchema) Relations() []*Schema {
	out := make([]*Schema, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.rels[n])
	}
	return out
}

// Names returns the relation names in insertion order.
func (db *DBSchema) Names() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// HasFiniteAttr reports whether any relation has a finite-domain attribute.
func (db *DBSchema) HasFiniteAttr() bool {
	for _, n := range db.order {
		if db.rels[n].HasFiniteAttr() {
			return true
		}
	}
	return false
}
