package program

import (
	"strings"

	"swim/internal/registry"
)

var policies = registry.New[Policy]("program", "policy")

// Register adds a policy to the registry under its Name. Registering a name
// twice is an error: silently replacing a policy would make experiment
// results depend on package-initialization order.
func Register(p Policy) error {
	name := ""
	if p != nil {
		name = p.Name()
	}
	return policies.Register(name, p)
}

// MustRegister is Register for package-init use; it panics on error.
func MustRegister(p Policy) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Lookup resolves a policy by name. Unknown names return an error listing
// what is registered, so a mistyped -policy flag reads as a usage hint.
func Lookup(name string) (Policy, error) { return policies.Lookup(name) }

// Names returns the registered policy names, sorted.
func Names() []string { return policies.Names() }

// ResolveNames parses a comma-separated policy list (the CLIs' -policies
// flag), validating every trimmed name through the registry. It returns the
// cleaned names in input order; an empty input yields nil.
func ResolveNames(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if _, err := Lookup(name); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}
