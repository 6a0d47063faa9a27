package calib

import (
	"fmt"
	"math"
	"strings"

	"swim/internal/registry"
)

// Models is the calibration-model registry. Builders reject unknown
// parameters, so a mistyped key reads as a usage error rather than a
// silent default.
var Models = registry.New[registry.Builder[Model]]("calib", "model")

// Parse builds one model from a spec string: a registered name optionally
// followed by colon-separated parameters, e.g. "gainoffset" or
// "pertile:probes=16,tilerows=64". Every model's Spec() round-trips through
// Parse to an identical model — the canonical spec spells out every resolved
// parameter, so two daemons that parse the same spec agree bit-for-bit.
func Parse(spec string) (Model, error) { return registry.Parse(Models, spec) }

// FromFlag resolves the CLIs' shared -calib flag convention: the literal
// "list" requests the registered-model listing (returned in listing, with no
// model); the empty string and the literal "none" disable calibration (ok
// reports false); anything else parses as a model spec.
func FromFlag(spec string) (m Model, ok bool, listing string, err error) {
	spec = strings.TrimSpace(spec)
	if spec == "list" {
		return Model{}, false, strings.Join(Models.Names(), "\n"), nil
	}
	if spec == "" || spec == "none" {
		return Model{}, false, "", nil
	}
	m, err = Parse(spec)
	if err != nil {
		return Model{}, false, "", err
	}
	return m, true, "", nil
}

// probeBudget validates the shared probes parameter.
func probeBudget(name string, p *registry.Params) (int, error) {
	probes := p.Get("probes", 8)
	if probes < 2 || probes != math.Trunc(probes) || probes > 1<<20 {
		return 0, fmt.Errorf("model %q needs integer probes >= 2 (got %g)", name, probes)
	}
	return int(probes), nil
}

func init() {
	// gainoffset: one least-squares gain+offset per bit-line column (output
	// row of the mapped matrix), fitted from `probes` one-hot probe reads
	// per matrix. The default budget of 8 probes matches a sub-percent
	// read overhead on every built-in workload.
	Models.MustRegister("gainoffset", func(p *registry.Params) (Model, error) {
		probes, err := probeBudget("gainoffset", p)
		if err != nil {
			return Model{}, err
		}
		if err := p.Leftover(); err != nil {
			return Model{}, err
		}
		m := Model{name: "gainoffset", probes: probes}
		m.spec = p.Spec()
		return m, m.Validate()
	})
	// pertile: the same affine fit at crossbar-tile granularity — one
	// (gain, offset) per tilerows×tilecols tile of the mapped matrix
	// (word lines × bit lines, defaulting to the 128×128 fabric of
	// crossbar.DefaultConfig). Coarser groups pool more probe samples per
	// fit, trading spatial resolution for estimator variance.
	Models.MustRegister("pertile", func(p *registry.Params) (Model, error) {
		probes, err := probeBudget("pertile", p)
		if err != nil {
			return Model{}, err
		}
		tr := p.Get("tilerows", 128)
		tc := p.Get("tilecols", 128)
		if tr < 1 || tr != math.Trunc(tr) || tc < 1 || tc != math.Trunc(tc) {
			return Model{}, fmt.Errorf("model %q needs integer tilerows/tilecols >= 1 (got %gx%g)", "pertile", tr, tc)
		}
		if err := p.Leftover(); err != nil {
			return Model{}, err
		}
		m := Model{name: "pertile", probes: probes, tileRows: int(tr), tileCols: int(tc)}
		m.spec = p.Spec()
		return m, m.Validate()
	})
}
