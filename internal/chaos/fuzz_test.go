package chaos

import "testing"

// FuzzChaosParse checks that Parse never panics, and that every spec it
// accepts renders (Spec.String) to text that parses back to the same spec.
func FuzzChaosParse(f *testing.F) {
	for _, s := range []string{
		"seed=7,drop=0.05,delay=0.1,delaymax=200ms,fail=0.02,truncate=0.02,corrupt=0.02,panic=1,stall=2,stallfor=5s,poison=1",
		"seed=1", "", ",", "drop=2", "drop=NaN", "delaymax=-1s", "stall=-1", "seed=1,seed=2", "bogus=1", "drop",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %#v, whose String %q does not parse: %v", s, spec, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("Parse(%q) = %#v, but its String %q parses to %#v", s, spec, spec.String(), again)
		}
	})
}
