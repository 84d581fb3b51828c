package simcache

import (
	"strings"
	"testing"

	"racesim/internal/core"
)

// FuzzDecodeEntry checks that DecodeEntry never panics on arbitrary bytes,
// and that every entry it accepts re-encodes to bytes that decode to the
// same key and result.
func FuzzDecodeEntry(f *testing.F) {
	res := core.Result{Instructions: 1000, Cycles: 1234, StallData: 77}
	res.Mem.L2.Misses = 5
	for _, key := range []string{
		strings.Repeat("ab", 32) + ":" + strings.Repeat("cd", 32), // packed form
		"not-a-hex-key",
		"",
	} {
		f.Add(EncodeEntry(key, res))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		key, res, err := DecodeEntry(data)
		if err != nil {
			return
		}
		key2, res2, err := DecodeEntry(EncodeEntry(key, res))
		if err != nil {
			t.Fatalf("entry for key %q decodes, but its re-encoding does not: %v", key, err)
		}
		if key2 != key || res2 != res {
			t.Fatalf("entry for key %q re-encodes to key %q, result %+v, want %+v", key, key2, res2, res)
		}
	})
}
