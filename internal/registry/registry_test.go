package registry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// point is a toy built value: two parameters with defaults, rendered back
// through Params.Spec like the cost and calibration models.
type point struct{ spec string }

func testRegistry(t *testing.T) *Registry[Builder[point]] {
	t.Helper()
	r := New[Builder[point]]("toy", "shape")
	r.MustRegister("pt", func(p *Params) (point, error) {
		x := p.Get("x", 1)
		p.Get("y", 0.5)
		if x < 0 {
			return point{}, fmt.Errorf("pt needs x >= 0 (got %g)", x)
		}
		return point{spec: p.Spec()}, nil
	})
	r.MustRegister("bare", func(p *Params) (point, error) { return point{spec: p.Spec()}, nil })
	return r
}

func TestRegisterRejects(t *testing.T) {
	r := New[Builder[point]]("toy", "shape")
	ok := func(*Params) (point, error) { return point{}, nil }
	if err := r.Register("a", nil); err == nil || err.Error() != "toy: register nil shape" {
		t.Fatalf("nil builder: %v", err)
	}
	if err := r.Register("", ok); err == nil || err.Error() != "toy: register shape with empty name" {
		t.Fatalf("empty name: %v", err)
	}
	if err := r.Register("a", ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", ok); err == nil || err.Error() != `toy: shape "a" already registered` {
		t.Fatalf("duplicate: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister of a duplicate did not panic")
		}
	}()
	r.MustRegister("a", ok)
}

func TestRegisterRejectsNilInterface(t *testing.T) {
	r := New[fmt.Stringer]("toy", "stringer")
	if err := r.Register("s", nil); err == nil {
		t.Fatal("nil interface value registered")
	}
}

func TestNamesSorted(t *testing.T) {
	r := New[int]("toy", "number")
	for i, name := range []string{"c", "a", "b"} {
		r.MustRegister(name, i)
	}
	if got := fmt.Sprint(r.Names()); got != "[a b c]" {
		t.Fatalf("Names() = %s, want [a b c]", got)
	}
	if v, err := r.Lookup("b"); err != nil || v != 2 {
		t.Fatalf("Lookup(b) = %d, %v", v, err)
	}
}

func TestUnknownNameHint(t *testing.T) {
	r := testRegistry(t)
	const want = `toy: unknown shape "circle" (registered: [bare pt])`
	if _, err := r.Lookup("circle"); err == nil || err.Error() != want {
		t.Fatalf("Lookup: %v, want %s", err, want)
	}
	// Parse resolves the name before it looks at the parameters.
	if _, err := Parse(r, "circle:x"); err == nil || err.Error() != want {
		t.Fatalf("Parse: %v, want %s", err, want)
	}
}

func TestParseErrors(t *testing.T) {
	r := testRegistry(t)
	for _, c := range []struct{ spec, want string }{
		{"pt:x", `toy: bad parameter "x" in spec "pt:x" (want key=value)`},
		{"pt:x=1,", `toy: bad parameter "" in spec "pt:x=1," (want key=value)`},
		{"pt:=1", `toy: bad parameter "=1" in spec "pt:=1" (want key=value)`},
		{"pt: =1", `toy: bad parameter " =1" in spec "pt: =1" (want key=value)`},
		{"pt:x=one", `toy: bad value for "x" in spec "pt:x=one": strconv.ParseFloat: parsing "one": invalid syntax`},
		{"pt:x=1e999", `toy: bad value for "x" in spec "pt:x=1e999": strconv.ParseFloat: parsing "1e999": value out of range`},
		{"pt:x=NaN", `toy: bad value for "x" in spec "pt:x=NaN": "NaN" is not finite`},
		{"pt:x= -Inf", `toy: bad value for "x" in spec "pt:x= -Inf": "-Inf" is not finite`},
		{"pt:y=+inf", `toy: bad value for "y" in spec "pt:y=+inf": "+inf" is not finite`},
		{"pt:x=1,x=2", `toy: duplicate parameter "x" in spec "pt:x=1,x=2"`},
		{"pt:x=1, x =2", `toy: duplicate parameter "x" in spec "pt:x=1, x =2"`},
		{"pt:z=1", `toy: spec "pt:z=1": unknown parameter "z" for shape "pt"`},
		{"pt:zz=1,x=1,aa=2", `toy: spec "pt:zz=1,x=1,aa=2": unknown parameter "aa" for shape "pt"`},
		{"bare:k=1", `toy: spec "bare:k=1": unknown parameter "k" for shape "bare"`},
		{"pt:x=-1", `toy: spec "pt:x=-1": pt needs x >= 0 (got -1)`},
	} {
		if _, err := Parse(r, c.spec); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v\n want %s", c.spec, err, c.want)
		}
	}
}

// The canonical spec spells out every resolved parameter in key order and
// reparses to itself; whitespace and parameter order do not matter.
func TestCanonicalRoundTrip(t *testing.T) {
	r := testRegistry(t)
	for _, c := range []struct{ spec, want string }{
		{"pt", "pt:x=1,y=0.5"},
		{"pt:", "pt:x=1,y=0.5"},
		{"  pt:y=0.1,x=3 ", "pt:x=3,y=0.1"},
		{"pt: x = 1e-7 ", "pt:x=1e-07,y=0.5"},
		{"pt:x=0.30000000000000004", "pt:x=0.30000000000000004,y=0.5"},
		{"bare", "bare"},
	} {
		v, err := Parse(r, c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if v.spec != c.want {
			t.Fatalf("Parse(%q) spec = %q, want %q", c.spec, v.spec, c.want)
		}
		again, err := Parse(r, v.spec)
		if err != nil || again.spec != v.spec {
			t.Fatalf("canonical %q reparsed to (%q, %v)", v.spec, again.spec, err)
		}
	}
}

func TestZeroParams(t *testing.T) {
	var p Params
	if got := p.Get("k", 2); got != 2 {
		t.Fatalf("Get on empty params = %g, want default 2", got)
	}
	if err := p.Leftover(); err != nil {
		t.Fatalf("Leftover on empty params: %v", err)
	}
	if got := p.Spec(); !strings.HasSuffix(got, ":k=2") {
		t.Fatalf("Spec() = %q", got)
	}
}

// Registration, lookup and parsing may run from several goroutines at once
// (swim-serve parses request specs concurrently); run under -race.
func TestConcurrentUse(t *testing.T) {
	r := testRegistry(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.Register(fmt.Sprintf("g%d-%d", g, i), func(p *Params) (point, error) { return point{}, nil }); err != nil {
					t.Error(err)
					return
				}
				if v, err := Parse(r, "pt:x=2"); err != nil || v.spec != "pt:x=2,y=0.5" {
					t.Errorf("Parse = (%q, %v)", v.spec, err)
					return
				}
				r.Names()
			}
		}()
	}
	wg.Wait()
	if n := len(r.Names()); n != 2+4*50 {
		t.Fatalf("%d names registered, want %d", n, 2+4*50)
	}
}
