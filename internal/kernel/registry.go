package kernel

import (
	"strings"

	"swim/internal/registry"
)

// Backends is the kernel-backend registry. Builders reject unknown
// parameters, so a mistyped key reads as a usage error rather than a
// silent default.
var Backends = registry.New[registry.Builder[Backend]]("kernel", "backend")

// Parse builds one backend from a spec string: a registered name optionally
// followed by colon-separated parameters, e.g. "blocked" or "scalar". Every
// built-in's Spec() round-trips through Parse.
func Parse(spec string) (Backend, error) { return registry.Parse(Backends, spec) }

// FromFlag resolves the CLIs' shared -kernel flag convention: the literal
// "list" requests the registered-backend listing (returned in listing, with
// no backend); the empty string selects Default(), the blocked backend;
// anything else parses as a backend spec. Keeping the convention here means
// every binary stays in sync when the grammar grows.
func FromFlag(spec string) (k Backend, listing string, err error) {
	switch strings.TrimSpace(spec) {
	case "list":
		return nil, strings.Join(Backends.Names(), "\n"), nil
	case "":
		return Default(), "", nil
	}
	k, err = Parse(spec)
	return k, "", err
}

func init() {
	Backends.MustRegister("scalar", func(*registry.Params) (Backend, error) { return scalar{}, nil })
	Backends.MustRegister("blocked", func(*registry.Params) (Backend, error) { return blocked{}, nil })
}
