package store

import (
	"bytes"
	"os"
	"testing"
)

const v3FixturePath = "testdata/v3.snap"

// TestV3Fixture pins the on-disk format against a committed snapshot
// of testSnapshot written by an earlier build. Encode must still
// reproduce it byte for byte, and it must load through Load and through
// OpenMapped under every policy into indexes that export testSnapshot's
// flats and score bit-identically to freshly built ones.
//
// The fixture changes only with a deliberate format revision, which
// also bumps FormatVersion. Regenerate it then with:
//
//	STORE_WRITE_V3_FIXTURE=1 go test ./internal/store -run TestV3Fixture
func TestV3Fixture(t *testing.T) {
	snap, slIx, rdIx, prIx := testSnapshot(t)
	if os.Getenv("STORE_WRITE_V3_FIXTURE") != "" {
		if err := Write(v3FixturePath, snap); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(v3FixturePath)
	if err != nil {
		t.Fatalf("committed v3 fixture missing: %v", err)
	}
	if !bytes.Equal(encodeOK(t, snap), data) {
		t.Fatal("Encode no longer reproduces the committed v3 fixture byte for byte")
	}
	opens := map[string]func() (*Mapped, error){
		"Load": func() (*Mapped, error) { return Load(v3FixturePath) },
	}
	for _, verify := range []VerifyPolicy{VerifyOnLoadSection, VerifyEager, VerifyNone} {
		opens["OpenMapped/"+verify.String()] = func() (*Mapped, error) {
			return OpenMapped(v3FixturePath, MapOptions{Verify: verify})
		}
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			mp, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer mp.Close()
			if mp.Meta() != snap.Meta {
				t.Fatalf("fixture meta %+v, want %+v", mp.Meta(), snap.Meta)
			}
			sl, rd, pr := importAll(t, mp)
			requireExports(t, snap, sl, rd, pr)
			requireSameScores(t, mp.Graph().NumNodes(), "built vs fixture",
				scorers(slIx, rdIx, prIx), scorers(sl, rd, pr))
		})
	}
}
