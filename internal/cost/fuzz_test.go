package cost

import "testing"

// FuzzParse drives the cost-model spec grammar with arbitrary input: no
// input may panic, and every accepted spec must canonicalize — Spec() of
// the parsed model reparses to a byte-identical Spec(). Cache keys and
// shard-merge agreement checks compare these strings directly.
func FuzzParse(f *testing.F) {
	f.Add("rram")
	f.Add("rram:par=32")
	f.Add("rram:ewrite=12.5,eread=1.25,par=64")
	f.Add("rram:par=0")
	f.Add("rram:bogus=1")
	f.Add("rram:par")
	f.Add(":=")
	f.Add("rram:par=1e999")
	f.Add("rram:write_pj=NaN")
	f.Add("lightening:fs_gsps=Inf")
	f.Add("rram:par=Inf")
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
