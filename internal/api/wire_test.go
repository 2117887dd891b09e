package api

import (
	"testing"
)

// TestCanonicalStability pins the exact canonical bytes and hashes of
// representative study requests. These values are load-bearing: the hash
// names the journal file a daemon resumes a study from, and the pinned
// bytes reproduce the serialization used before Canonical existed (a
// json.Marshal of the normalized request struct) — so upgrading a daemon
// never orphans the journals already on its disk. If this test fails,
// you have changed the on-disk identity of every resumable study; bump
// the journal naming scheme alongside or revert.
func TestCanonicalStability(t *testing.T) {
	cases := []struct {
		req   StudyRequest
		canon string
		hash  string
	}{
		{StudyRequest{Study: "single"},
			`{"study":"single","scale":1,"seed":1,"policy":"alternate"}`,
			"e74273298b1d623b"},
		{StudyRequest{Study: "pair", Scale: 0.1},
			`{"study":"pair","scale":0.1,"seed":1,"policy":"alternate"}`,
			"485aa92bef001472"},
		{StudyRequest{Study: "cross", Scale: 0.25, Seed: 7, Policy: "symbiotic"},
			`{"study":"cross","scale":0.25,"seed":7,"policy":"symbiotic"}`,
			"0217fc6ac62531c2"},
		{StudyRequest{Study: "single", Scale: 0.02, Seed: 3, Policy: "round-robin"},
			`{"study":"single","scale":0.02,"seed":3,"policy":"round-robin"}`,
			"3eab797df201d42f"},
	}
	for _, c := range cases {
		canon, err := c.req.Canonical()
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		if string(canon) != c.canon {
			t.Errorf("%+v canonical bytes:\n got %s\nwant %s", c.req, canon, c.canon)
		}
		hash, err := c.req.Hash()
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		if hash != c.hash {
			t.Errorf("%+v hash %s, want %s", c.req, hash, c.hash)
		}
	}
}

// TestHashNormalization: zero values and their explicit defaults are the
// same request, and must resume from the same journal.
func TestHashNormalization(t *testing.T) {
	a, err := StudyRequest{Study: "single"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := StudyRequest{Study: "single", Scale: 1.0, Seed: 1, Policy: "alternate"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("zero-value request hashes %s, explicit defaults hash %s; they are the same study", a, b)
	}
	c, err := StudyRequest{Study: "single", Seed: 2}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced the same hash")
	}
}

func TestEventTerminal(t *testing.T) {
	if (Event{Seq: 1, Cell: "CG|Serial"}).Terminal() {
		t.Error("cell event reported terminal")
	}
	if !(Event{Seq: 9, State: StateDone}).Terminal() {
		t.Error("terminal event not reported terminal")
	}
}
