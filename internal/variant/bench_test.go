package variant

import (
	"fmt"
	"testing"
)

// Micro-benchmarks of the value model's hot paths: a field lookup either
// side of the small-object threshold, the cost of moving a column of
// values, and the two decoders that build objects. `make bench-smoke` runs
// each once; compare commits with
//
//	go test -run '^$' -bench . -benchmem -count 10 ./internal/variant/

// benchEventJSON is a typical ADL event: 8 top-level fields, two small
// records, a five-element array of five-field records, four empty arrays.
const benchEventJSON = `{"EVENT":100002,"HLT":{"IsoMu24":false,"IsoMu17_eta2p1":false},` +
	`"MET":{"pt":15.33,"phi":0.257,"sumet":488.609},"Muon":[],"Electron":[],"Jet":[` +
	`{"pt":33.167,"eta":-0.756,"phi":-2.16,"mass":5.777,"btag":0.794},` +
	`{"pt":30.816,"eta":-0.026,"phi":2.216,"mass":5.87,"btag":0.673},` +
	`{"pt":49.942,"eta":2.919,"phi":2.84,"mass":5.758,"btag":0.579},` +
	`{"pt":15.21,"eta":-0.116,"phi":-0.982,"mass":6.027,"btag":0.92},` +
	`{"pt":54.169,"eta":-2.966,"phi":-1.074,"mass":6.08,"btag":0.638}],"Photon":[],"Tau":[]}`

func BenchmarkObjectGet(b *testing.B) {
	for _, n := range []int{4, 8, 16, 64} {
		o := NewObjectSized(n)
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("field_%02d", i)
			o.Set(keys[i], Int(int64(i)))
		}
		v := ObjectValue(o)
		b.Run(fmt.Sprintf("%dkeys", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkValue = v.Field(keys[i%n]) // every position, hits only
			}
		})
	}
}

// BenchmarkValueCopy1024 moves one batch-sized column: what projectIter,
// the builders and every materializing operator do per column per batch.
func BenchmarkValueCopy1024(b *testing.B) {
	src := make([]Value, 1024)
	for i := range src {
		src[i] = Float(float64(i))
	}
	dst := make([]Value, len(src))
	b.ReportAllocs()
	b.SetBytes(int64(len(src)) * 24)
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
	sinkValue = dst[len(dst)-1]
}

func BenchmarkParseJSONEvent(b *testing.B) {
	data := []byte(benchEventJSON)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		v, err := ParseJSON(data)
		if err != nil {
			b.Fatal(err)
		}
		sinkValue = v
	}
}

func BenchmarkDecodeBinaryEvent(b *testing.B) {
	data := MustParseJSON(benchEventJSON).AppendBinary(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		v, _, err := DecodeBinary(data)
		if err != nil {
			b.Fatal(err)
		}
		sinkValue = v
	}
}
