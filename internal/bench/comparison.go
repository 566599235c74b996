package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Comparison is the machine-readable payload behind BENCH_crashsim.json:
// one section per experiment that compares two real alternatives a user
// chooses between, so the repo's perf trajectory across PRs can be
// diffed by tooling instead of eyeballed from prose. Each experiment
// owns one section and merges it into the file (MergeComparison),
// preserving the sections it does not own.
type Comparison struct {
	// Batch is the multi-source throughput section (Throughput); nil
	// when the throughput experiment did not run.
	Batch *ThroughputComparison `json:"batch,omitempty"`
	// Store is the index-snapshot cold-build vs warm-load section
	// (Store); nil when the store experiment did not run.
	Store *StoreComparison `json:"store,omitempty"`
}

// WriteJSON renders the comparison as indented JSON.
func (c *Comparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadComparison loads a comparison file. A missing file is an error
// wrapping os.ErrNotExist. Unknown top-level keys are rejected: a file
// written in another shape (a bare section, or a format with retired
// sections) must not be graded or merged as if it were empty.
func ReadComparison(path string) (*Comparison, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	cmp := &Comparison{}
	if err := dec.Decode(cmp); err != nil {
		return nil, fmt.Errorf("bench: %s does not parse as a comparison file (%v); move it aside to regenerate", path, err)
	}
	return cmp, nil
}

// MergeComparison writes one experiment's section into the comparison
// file at path: it reads the file (a missing file starts empty), lets
// set fill the section it owns, and writes the result back, so every
// other recorded section survives. A file that exists but does not
// parse is an error; overwriting it would destroy sections someone
// measured.
func MergeComparison(path string, set func(*Comparison)) error {
	cmp, err := ReadComparison(path)
	if errors.Is(err, os.ErrNotExist) {
		cmp, err = &Comparison{}, nil
	}
	if err != nil {
		return err
	}
	set(cmp)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cmp.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
