package telemetry

import "testing"

// FuzzParseHeader checks that ParseHeader never panics, that anything it
// rejects is the zero context, and that an accepted header round-trips
// through Header.
func FuzzParseHeader(f *testing.F) {
	for _, s := range []string{
		"0123456789abcdef-fedcba9876543210", " 0123456789abcdef-fedcba9876543210\t",
		"0123456789ABCDEF-fedcba9876543210", "-", "", "0123456789abcdef-", "a-b-c",
		"0123456789abcdef-fedcba9876543210-0123456789abcdef",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc := ParseHeader(v)
		if !sc.Valid() {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseHeader(%q) = %+v: invalid but not zero", v, sc)
			}
			return
		}
		if again := ParseHeader(sc.Header()); again != sc {
			t.Fatalf("ParseHeader(%q) = %+v, whose Header %q parses to %+v", v, sc, sc.Header(), again)
		}
	})
}
