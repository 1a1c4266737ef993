package jsoniq_test

import (
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/jsoniq"
)

// BenchmarkLex times lexing each ADL query text, the first compile layer.
func BenchmarkLex(b *testing.B) {
	for _, q := range adl.Queries() {
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jsoniq.Lex(q.JSONiq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParse times lexing and parsing each ADL query text into its
// expression tree (Parse lexes internally; subtract BenchmarkLex for the
// parser alone).
func BenchmarkParse(b *testing.B) {
	for _, q := range adl.Queries() {
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jsoniq.Parse(q.JSONiq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
