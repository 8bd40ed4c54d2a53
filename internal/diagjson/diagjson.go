// Package diagjson defines the one diagnostic record shape every stackless
// CLI emits under -json: dralint, treelint, tablecheck and allocgate all
// print a JSON array of Records, so downstream tooling (CI
// annotators, editors) parses a single schema regardless of which gate
// produced the finding.
package diagjson

import (
	"encoding/json"
	"io"
)

// A Record is one machine-readable diagnostic.
type Record struct {
	// File is the diagnosed file, slash-separated, relative to the tool's
	// working tree when possible.
	File string `json:"file"`
	// Line is the 1-based line of the finding (0 when the finding is not
	// anchored to a line, e.g. a whole-table property).
	Line int `json:"line"`
	// Analyzer names the tool that produced the record: "dralint",
	// "treelint", "tablecheck" or "allocgate".
	Analyzer string `json:"analyzer"`
	// Kind is the tool-specific finding class (an analyzer name for
	// treelint, a check kind for tablecheck, "escape" or "bounds-check"
	// for allocgate, ...).
	Kind string `json:"kind"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
}

// Write encodes records as an indented JSON array followed by a newline.
// A nil or empty slice encodes as [] — never null — so consumers can
// always range over the result.
func Write(w io.Writer, records []Record) error {
	if records == nil {
		records = []Record{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
