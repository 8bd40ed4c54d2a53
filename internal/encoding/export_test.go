package encoding

import "io"

// Test-only hooks for the external test package (encoding_test).

// NewRefXMLScanner returns the byte-at-a-time reference XML scanner.
func NewRefXMLScanner(r io.Reader) Source { return newRefXMLScanner(r) }

// NewRefTermScanner returns the byte-at-a-time reference term scanner.
func NewRefTermScanner(r io.Reader) Source { return newRefTermScanner(r) }
