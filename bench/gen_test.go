package main

import "testing"

// TestGeneratorsAreDeterministic: the same seed gives byte-identical tables,
// query family, patch stream and override stream (their hash is compared);
// another seed gives other bytes of exactly the same shape.
func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, sz := range []sizes{sizesShort, sizesFull} {
		for _, sp := range workloads {
			a, err := genInput(sp.name, 11, sz)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := genInput(sp.name, 11, sz)
			c, _ := genInput(sp.name, 12, sz)
			if a.hash != b.hash {
				t.Errorf("%s: seed 11 hashed %s then %s", sp.name, a.hash, b.hash)
			}
			if a.hash == c.hash {
				t.Errorf("%s: seeds 11 and 12 give the same input", sp.name)
			}
			if len(a.tables) != len(c.tables) || len(a.plans) != len(c.plans) ||
				len(a.bodies) != len(c.bodies) || len(a.patches) != len(c.patches) {
				t.Errorf("%s: the shape of the input depends on the seed", sp.name)
			}
			seen := map[string]bool{}
			for _, body := range a.bodies {
				if seen[string(body)] {
					t.Errorf("%s: request body occurs twice: %s", sp.name, body)
				}
				seen[string(body)] = true
			}
		}
	}
}

// TestLiveSetsReplayThePatchStream: the live set the read checks predict
// matches a straight replay at every position.
func TestLiveSetsReplayThePatchStream(t *testing.T) {
	in, err := genInput("patch_stream", 3, sizesShort)
	if err != nil {
		t.Fatal(err)
	}
	ls := newLiveSets(in.patches)
	var alive []int
	limit := liveCap(sizesShort.patchOrders)
	for k, op := range in.patches {
		got := ls.at(k, false)
		if len(got) != len(alive) {
			t.Fatalf("after %d patches: %d rows alive, want %d", k, len(got), len(alive))
		}
		if len(alive) > limit {
			t.Fatalf("after %d patches: %d rows alive, over the cap %d", k, len(alive), limit)
		}
		alive = applyPatchOp(alive, op)
	}
}
