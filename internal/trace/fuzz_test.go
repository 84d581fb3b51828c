package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceReadFrom checks that ReadFrom never panics, and that a stream
// it accepts round-trips: the trace writes back to bytes that read as an
// equal trace with the same digest, and rewriting those is a fixed point.
func FuzzTraceReadFrom(f *testing.F) {
	seed := &Trace{Name: "seed", WarmData: true, Events: []Event{
		{PC: 0x1000, Word: 0xd503201f},
	}}
	var buf bytes.Buffer
	if _, err := seed.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("RIFT"))
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatalf("write of an accepted trace failed: %v", err)
		}
		back, err := ReadFrom(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written trace failed: %v", err)
		}
		if back.Name != tr.Name || back.WarmData != tr.WarmData || !eventsEqual(back.Events, tr.Events) {
			t.Fatalf("round trip changed the trace:\n got %q %v %+v\nwant %q %v %+v",
				back.Name, back.WarmData, back.Events, tr.Name, tr.WarmData, tr.Events)
		}
		if back.Digest() != tr.Digest() {
			t.Fatal("round trip changed the digest")
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatal("rewriting a written trace changed its bytes")
		}
	})
}

func eventsEqual(a, b []Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
