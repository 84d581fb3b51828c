package scenario

import (
	"fmt"
	"testing"
)

// FuzzParseShard checks that ParseShard never panics, and that every spec
// it accepts names a 1-based shard i of n that re-parses from its
// canonical "i/n" form to the same pair.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{"", "1/1", "2/4", "0/3", "3/2", "1/", "/2", "a/b", "-1/2", "+1/2", "1/2/3", " 1/2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		i, n, err := ParseShard(s)
		if err != nil {
			return
		}
		if i < 1 || n < 1 || i > n {
			t.Fatalf("ParseShard(%q) accepted shard %d/%d", s, i, n)
		}
		i2, n2, err := ParseShard(fmt.Sprintf("%d/%d", i, n))
		if err != nil || i2 != i || n2 != n {
			t.Fatalf("ParseShard(%q) = %d/%d, which re-parses to %d/%d, %v", s, i, n, i2, n2, err)
		}
	})
}
