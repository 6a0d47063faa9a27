// Package registry is the one implementation behind every name-keyed
// registry in the module: program policies, nonideality models, cost
// presets, calibration models and kernel backends.
//
// A Registry maps names to values under a mutex. Registries of Builders
// additionally share one spec grammar,
//
//	name[:key=value[,key=value...]]
//
// parsed by Parse: the name selects a builder, the parameters arrive as a
// *Params, and the builder reads each one with a default through Get. Every
// error a registry returns is prefixed with its package name, and an
// unknown name lists what is registered, so CLIs and swim-serve can print
// the errors verbatim as usage hints.
package registry

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a concurrency-safe name→value map. Registering a name twice
// is an error: silently replacing an entry would make results depend on
// package-initialization order.
type Registry[T any] struct {
	pkg  string // error prefix, e.g. "nonideal"
	kind string // what an entry is called in errors, e.g. "model"
	mu   sync.RWMutex
	m    map[string]T
}

// New returns an empty registry whose errors read "pkg: ... kind ...".
func New[T any](pkg, kind string) *Registry[T] {
	return &Registry[T]{pkg: pkg, kind: kind, m: map[string]T{}}
}

// Register adds v under name, rejecting a nil value, an empty name and a
// name that is already registered.
func (r *Registry[T]) Register(name string, v T) error {
	if isNil(v) {
		return fmt.Errorf("%s: register nil %s", r.pkg, r.kind)
	}
	if name == "" {
		return fmt.Errorf("%s: register %s with empty name", r.pkg, r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("%s: %s %q already registered", r.pkg, r.kind, name)
	}
	r.m[name] = v
	return nil
}

// MustRegister is Register for package-init use; it panics on error.
func (r *Registry[T]) MustRegister(name string, v T) {
	if err := r.Register(name, v); err != nil {
		panic(err)
	}
}

// Lookup resolves name. An unknown name returns an error that echoes it and
// lists what is registered.
func (r *Registry[T]) Lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("%s: unknown %s %q (registered: %v)", r.pkg, r.kind, name, r.Names())
	}
	return v, nil
}

// Names returns the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// isNil reports whether v is a nil func, pointer, interface, map, slice or
// channel; T is generic, so a plain comparison with nil is not available.
func isNil[T any](v T) bool {
	rv := reflect.ValueOf(&v).Elem()
	switch rv.Kind() {
	case reflect.Func, reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice, reflect.Chan:
		return rv.IsNil()
	}
	return false
}

// Builder constructs a configured value from spec parameters. Missing keys
// take the builder's defaults; keys it never reads are an error.
type Builder[T any] func(p *Params) (T, error)

// Parse builds one value from a spec string: a registered name optionally
// followed by colon-separated parameters, e.g. "drift" or
// "drift:nu=0.05,nustd=0.01". Malformed, non-finite and repeated parameters
// fail before the builder runs; builder errors, including a parameter the
// builder did not read, come back as "pkg: spec %q: ...".
func Parse[T any](r *Registry[Builder[T]], spec string) (T, error) {
	var zero T
	name, rest, _ := strings.Cut(strings.TrimSpace(spec), ":")
	build, err := r.Lookup(name)
	if err != nil {
		return zero, err
	}
	vals, err := tokenize(spec, rest)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", r.pkg, err)
	}
	p := &Params{name: name, kind: r.kind, vals: vals}
	v, err := build(p)
	if err == nil {
		err = p.Leftover()
	}
	if err != nil {
		return zero, fmt.Errorf("%s: spec %q: %w", r.pkg, spec, err)
	}
	return v, nil
}

// tokenize splits the parameter part of spec ("key=value,...") into a map.
// Keys and values are trimmed; an entry without '=', an empty key, a value
// that is not a finite float and a repeated key are all errors.
func tokenize(spec, rest string) (map[string]float64, error) {
	if rest == "" {
		return nil, nil
	}
	vals := map[string]float64{}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		key := strings.TrimSpace(k)
		if !ok || key == "" {
			return nil, fmt.Errorf("bad parameter %q in spec %q (want key=value)", kv, spec)
		}
		v = strings.TrimSpace(v)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value for %q in spec %q: %v", k, spec, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("bad value for %q in spec %q: %q is not finite", k, spec, v)
		}
		if _, dup := vals[key]; dup {
			return nil, fmt.Errorf("duplicate parameter %q in spec %q", key, spec)
		}
		vals[key] = f
	}
	return vals, nil
}

// Params carries the parameters of one spec to its builder and records
// what the builder resolved: explicit values win, defaults fill the rest,
// and every key read lands in the canonical spec. The zero value is an
// empty parameter set.
type Params struct {
	name, kind string
	vals       map[string]float64
	resolved   map[string]float64
}

// Get returns the spec's value for key, or def if the spec omits it, and
// records the resolved value.
func (p *Params) Get(key string, def float64) float64 {
	v, ok := p.vals[key]
	if !ok {
		v = def
	}
	if p.resolved == nil {
		p.resolved = map[string]float64{}
	}
	p.resolved[key] = v
	return v
}

// Leftover returns an error naming the smallest spec key the builder has
// not read, or nil. Parse calls it after every successful build; a builder
// calls it itself only to report unknown keys ahead of its own validation.
func (p *Params) Leftover() error {
	unknown := ""
	for k := range p.vals {
		if _, ok := p.resolved[k]; !ok && (unknown == "" || k < unknown) {
			unknown = k
		}
	}
	if unknown == "" {
		return nil
	}
	return fmt.Errorf("unknown parameter %q for %s %q", unknown, p.kind, p.name)
}

// Spec renders the canonical spec: the name plus every resolved parameter
// in sorted key order. strconv's 'g' formatting emits the shortest digit
// string that round-trips exactly, so parsing the spec rebuilds
// bit-identical values.
func (p *Params) Spec() string {
	keys := make([]string, 0, len(p.resolved))
	for k := range p.resolved {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(p.name)
	for i, k := range keys {
		if i == 0 {
			sb.WriteByte(':')
		} else {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatFloat(p.resolved[k], 'g', -1, 64))
	}
	return sb.String()
}
