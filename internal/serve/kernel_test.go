package serve

import (
	"bytes"
	"net/http"
	"testing"

	"swim/internal/serialize"
)

// TestNormalizeKernelCanonical pins the kernel axis's cache contract: specs
// canonicalize ("blocked" and "" collapse to the default form), the axis is
// excluded from the canonical key, the daemon default fills empty requests,
// and a malformed spec is rejected at submission.
func TestNormalizeKernelCanonical(t *testing.T) {
	s, _ := newTestServer(t, Config{TotalWorkers: 1})
	norm := func(k string) *serialize.RequestRecord {
		t.Helper()
		n, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test", Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	key := func(k string) string {
		t.Helper()
		ck, err := norm(k).CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	if got := norm(" blocked ").Kernel; got != "" {
		t.Errorf(`"blocked" normalized to %q, want the empty default form`, got)
	}
	if got := norm(" scalar").Kernel; got != "scalar" {
		t.Errorf(`" scalar" normalized to %q, want "scalar"`, got)
	}
	if key("") != key("blocked") || key("blocked") != key("scalar") {
		t.Error("kernel axis leaked into the canonical key")
	}
	for _, bad := range []string{"simd9000", "parallel", "parallel:workers=2", "blocked:workers=2"} {
		if _, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test", Kernel: bad}); err == nil {
			t.Errorf("kernel spec %q accepted", bad)
		}
	}

	// A daemon started with a default backend applies it to requests that
	// leave the axis empty — without touching their cache identity.
	d, _ := newTestServer(t, Config{TotalWorkers: 1, Kernel: "scalar"})
	dn, err := d.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if dn.Kernel != "scalar" {
		t.Errorf("daemon default not applied: kernel = %q", dn.Kernel)
	}
	dk, err := dn.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if dk != key("") {
		t.Error("daemon-default kernel changed the canonical key")
	}
}

// TestServeKernelAxisByteIdentity pins the determinism contract over HTTP: a
// request computed with the scalar reference backend returns an envelope
// byte-identical to the default-backend CLI path, and a follow-up request
// differing only in kernel is answered from the cache (shared canonical key).
func TestServeKernelAxisByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{TotalWorkers: 2})
	req := testRequest(505, "")
	want := referenceEnvelope(t, req) // default backend, sequential

	req.Kernel = "scalar"
	rec, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	if done := await(t, ts, rec.ID); done.Status != serialize.JobDone {
		t.Fatalf("job %s (%s)", done.Status, done.Error)
	}
	if got := fetchResult(t, ts, rec.ID); !bytes.Equal(got, want) {
		t.Errorf("scalar-kernel result differs from the default CLI path:\nhttp: %s\ncli:  %s", got, want)
	}

	req.Kernel = "blocked"
	second, code := submit(t, ts, req)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("kernel-only change missed the cache: %d %+v", code, second)
	}
}
