package registry

import (
	"strings"
	"testing"
)

// FuzzParse drives the shared spec grammar with arbitrary input: no input
// may panic, an accepted spec never carries a non-finite value, and its
// canonical spec reparses to itself byte for byte.
func FuzzParse(f *testing.F) {
	f.Add("pt")
	f.Add("pt:x=2,y=0.25")
	f.Add("pt:x=NaN")
	f.Add("pt:y=-Inf")
	f.Add("pt:x=1,x=1")
	f.Add("pt:=1")
	f.Add("bare:k=1,")
	f.Add(":")
	f.Fuzz(func(t *testing.T, spec string) {
		r := testRegistry(t)
		v, err := Parse(r, spec)
		if err != nil {
			return
		}
		lower := strings.ToLower(v.spec)
		if strings.Contains(lower, "nan") || strings.Contains(lower, "inf") {
			t.Fatalf("spec %q accepted with non-finite canonical form %q", spec, v.spec)
		}
		again, err := Parse(r, v.spec)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) rejected: %v", v.spec, spec, err)
		}
		if again.spec != v.spec {
			t.Fatalf("canonical form not a fixed point: %q reparsed to %q", v.spec, again.spec)
		}
	})
}
