package main

import "testing"

// TestNormalize: the fields that differ between executions are cut, string
// contents that look like keys are not, and the hash sees everything else.
func TestNormalize(t *testing.T) {
	body := []byte(`{"query":"q \"x\"","selection":{"tuples":3,"reason":"a } \" b"},"catalogVersion":7,"cacheHit":true,"answer":"a\n\"plan\":","plan":"scan \"x\"","tuples":[],"prepareMicros":12,"execMicros":3}`)
	want := `{"query":"q \"x\"","catalogVersion":7,"answer":"a\n\"plan\":","tuples":[],}`
	if got := string(normalize(body)); got != want {
		t.Errorf("normalize:\n got %s\nwant %s", got, want)
	}
	other := []byte(`{"query":"q \"x\"","selection":{"tuples":3,"reason":"a } \" b"},"catalogVersion":7,"cacheHit":false,"answer":"a\n\"plan\":","plan":"other","tuples":[],"prepareMicros":0,"execMicros":99}`)
	if bodyHash(body) != bodyHash(other) {
		t.Error("bodyHash depends on a timing field")
	}
	changed := []byte(`{"query":"q \"x\"","selection":{"tuples":3,"reason":"a } \" b"},"catalogVersion":8,"cacheHit":false,"answer":"a\n\"plan\":","plan":"other","tuples":[],"prepareMicros":0,"execMicros":99}`)
	if bodyHash(body) == bodyHash(changed) {
		t.Error("bodyHash ignores the catalog version")
	}
}
