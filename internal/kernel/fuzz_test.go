package kernel

import "testing"

// FuzzParse drives the kernel-backend spec grammar with arbitrary input:
// no input may panic, and every accepted spec must canonicalize — Spec()
// of the parsed backend reparses to a byte-identical Spec().
func FuzzParse(f *testing.F) {
	f.Add("scalar")
	f.Add("blocked")
	f.Add("parallel:workers=4")
	f.Add("blocked:workers=0")
	f.Add("parallel")
	f.Add("scalar:extra=1")
	f.Add("blocked:workers=-3")
	f.Add("parallel:workers=2.5")
	f.Add("blocked:workers=NaN")
	f.Add("parallel:workers=+Inf")
	f.Fuzz(func(t *testing.T, spec string) {
		k, err := Parse(spec)
		if err != nil {
			return
		}
		canon := k.Spec()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) rejected: %v", canon, spec, err)
		}
		if got := again.Spec(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q reparsed to %q", canon, got)
		}
	})
}
