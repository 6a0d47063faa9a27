package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
)

// golden.json maps a check name to the SHA-256 of the result bytes the
// program produced for it when the benchmark was written:
//
//   - <workload>/warmup: the fixed warm-up computation every run performs
//     before timing (serve-mix and serve-shard share "serve/warmup", so the
//     coordinator's merged shards must equal the standalone daemon's bytes
//     on every run);
//   - <workload>/seed1: the first timed computation at the default seed
//     (serve-shard's is the standalone daemon's answer to the same request).
//
// The device model has no hardware reference in this repository, so these
// pin identity with the program's own earlier output, not accuracy against
// hardware.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic("perfbench: malformed golden.json: " + err.Error())
	}
	return m
}()

// sha returns the hex SHA-256 of b.
func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares the hash of result bytes with the committed golden
// named key, recording a failed check on a mismatch or a missing entry.
func checkGolden(t *tally, key string, got []byte) {
	h := sha(got)
	want, ok := golden[key]
	t.check(ok && want == h, "golden %s: got sha256 %s, want %q", key, h, want)
}
