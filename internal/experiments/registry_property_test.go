package experiments

// Cross-registry property test. The nonideality, cost, kernel and
// calibration registries share one implementation (internal/registry) and
// one contract — spec strings canonicalize through Parse, unknown names
// fail with a usage hint listing what IS registered — but each package only
// tests its own corner. This file pins the shared contract in one place, so
// a new registry (or a package convention layered on one) that drifts from
// it fails loudly. The program policy registry has no spec grammar and
// joins only the unknown-name check.

import (
	"strings"
	"testing"

	"swim/internal/calib"
	"swim/internal/cost"
	"swim/internal/kernel"
	"swim/internal/nonideal"
	"swim/internal/program"
)

// registryContract adapts one registry to the shared shape: its registered
// names, a parse returning the canonical spec, and the error for an
// unknown lookup. canonical is nil for a registry without a spec grammar.
type registryContract struct {
	pkg        string
	registered []string
	canonical  func(spec string) (string, error)
	lookupErr  func(name string) error
}

func contracts() []registryContract {
	return []registryContract{
		{
			pkg:        "nonideal",
			registered: nonideal.Models.Names(),
			canonical: func(spec string) (string, error) {
				n, err := nonideal.Parse(spec)
				if err != nil {
					return "", err
				}
				return n.String(), nil
			},
			lookupErr: func(name string) error { _, err := nonideal.Models.Lookup(name); return err },
		},
		{
			pkg:        "cost",
			registered: cost.Models.Names(),
			canonical: func(spec string) (string, error) {
				m, err := cost.Parse(spec)
				if err != nil {
					return "", err
				}
				return m.Spec(), nil
			},
			lookupErr: func(name string) error { _, err := cost.Models.Lookup(name); return err },
		},
		{
			pkg:        "kernel",
			registered: kernel.Backends.Names(),
			canonical: func(spec string) (string, error) {
				k, err := kernel.Parse(spec)
				if err != nil {
					return "", err
				}
				return k.Spec(), nil
			},
			lookupErr: func(name string) error { _, err := kernel.Backends.Lookup(name); return err },
		},
		{
			pkg:        "calib",
			registered: calib.Models.Names(),
			canonical: func(spec string) (string, error) {
				m, err := calib.Parse(spec)
				if err != nil {
					return "", err
				}
				return m.Spec(), nil
			},
			lookupErr: func(name string) error { _, err := calib.Models.Lookup(name); return err },
		},
	}
}

// Every registry has at least one built-in, and every built-in's bare name
// parses with defaults to a canonical spec that is a Parse fixed point:
// Parse(Parse(name).Spec()).Spec() == Parse(name).Spec(). Cache keys,
// shard-merge agreement checks and journal resume all compare these
// strings byte for byte, so "canonical" has to mean exactly one spelling.
func TestRegistriesCanonicalizeBuiltins(t *testing.T) {
	for _, c := range contracts() {
		if len(c.registered) == 0 {
			t.Errorf("%s: no built-ins registered", c.pkg)
			continue
		}
		for _, name := range c.registered {
			canon, err := c.canonical(name)
			if err != nil {
				t.Errorf("%s: built-in %q does not parse bare: %v", c.pkg, name, err)
				continue
			}
			if !strings.HasPrefix(canon, name) {
				t.Errorf("%s: canonical spec %q does not lead with the name %q", c.pkg, canon, name)
			}
			again, err := c.canonical(canon)
			if err != nil {
				t.Errorf("%s: canonical spec %q rejected on reparse: %v", c.pkg, canon, err)
				continue
			}
			if again != canon {
				t.Errorf("%s: canonical spec not a fixed point: %q -> %q", c.pkg, canon, again)
			}
			// Whitespace around the spec must not change the parse.
			padded, err := c.canonical("  " + canon + " ")
			if err != nil || padded != canon {
				t.Errorf("%s: padded spec %q -> (%q, %v), want %q", c.pkg, "  "+canon+" ", padded, err, canon)
			}
		}
	}
}

// Unknown names fail the same way everywhere: a non-nil error that names
// the package, echoes the offending name, and lists every registered
// built-in as a usage hint. CLIs print these errors verbatim.
func TestRegistriesRejectUnknownNames(t *testing.T) {
	const bogus = "no-such-model-xyz"
	policies := registryContract{
		pkg:        "program",
		registered: program.Names(),
		lookupErr:  func(name string) error { _, err := program.Lookup(name); return err },
	}
	for _, c := range append(contracts(), policies) {
		err := c.lookupErr(bogus)
		if err == nil {
			t.Errorf("%s: unknown name %q looked up", c.pkg, bogus)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, c.pkg+":") {
			t.Errorf("%s: error not package-prefixed: %q", c.pkg, msg)
		}
		if !strings.Contains(msg, bogus) {
			t.Errorf("%s: error does not echo the unknown name: %q", c.pkg, msg)
		}
		for _, name := range c.registered {
			if !strings.Contains(msg, name) {
				t.Errorf("%s: usage hint omits built-in %q: %q", c.pkg, name, msg)
			}
		}
		// Parse goes through Lookup, so a bogus spec fails identically.
		if c.canonical == nil {
			continue
		}
		if _, err := c.canonical(bogus + ":x=1"); err == nil {
			t.Errorf("%s: spec with unknown name parsed", c.pkg)
		}
	}
}

// Non-finite parameter values fail in the shared tokenizer, ahead of every
// builder's range checks: NaN compares false against any bound, so those
// checks alone let it through into canonical specs.
func TestRegistriesRejectNonFinite(t *testing.T) {
	bad := map[string][]string{
		"nonideal": {"drift:nu=NaN", "stuckat:p=NaN", "d2d:spread=NaN", "retention:tau=Inf"},
		"cost":     {"rram:write_pj=NaN", "lightening:fs_gsps=Inf", "rram:par=Inf"},
		"kernel":   {"blocked:workers=NaN"},
		"calib":    {"gainoffset:probes=NaN", "pertile:tilerows=-Inf"},
	}
	for _, c := range contracts() {
		if len(bad[c.pkg]) == 0 {
			t.Errorf("%s: no non-finite cases", c.pkg)
		}
		for _, spec := range bad[c.pkg] {
			canon, err := c.canonical(spec)
			if err == nil || !strings.HasPrefix(err.Error(), c.pkg+": bad value") {
				t.Errorf("%s: %q -> (%q, %v), want a bad value error", c.pkg, spec, canon, err)
			}
		}
	}
}
