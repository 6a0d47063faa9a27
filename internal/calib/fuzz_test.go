package calib

import "testing"

// FuzzParse drives the calibration-model spec grammar with arbitrary
// input: no input may panic, and every accepted spec must canonicalize —
// Spec() of the parsed model reparses to a byte-identical Spec(). The
// serve tier's cache keys and the shard merge's agreement check both
// compare these strings, so the fixed point is load-bearing.
func FuzzParse(f *testing.F) {
	f.Add("gainoffset")
	f.Add("gainoffset:probes=16")
	f.Add("pertile")
	f.Add("pertile:probes=8,tilerows=32,tilecols=16")
	f.Add("gainoffset:probes=1")
	f.Add("gainoffset:tilerows=8")
	f.Add("pertile:tilerows=8")
	f.Add("gainoffset:probes=2.5")
	f.Add("gainoffset:probes=")
	f.Add("gainoffset:probes=NaN")
	f.Add("pertile:tilerows=Inf")
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := Parse(spec)
		if err != nil {
			return
		}
		canon := m.Spec()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) rejected: %v", canon, spec, err)
		}
		if got := again.Spec(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q reparsed to %q", canon, got)
		}
	})
}
