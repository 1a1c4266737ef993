// Command datagen emits the synthetic benchmark datasets as JSON lines, for
// inspection or for loading through jsq — or writes them straight into a
// persistent warehouse directory with -data-dir.
//
// Usage:
//
//	datagen -kind adl -n 1000 -seed 42 > events.jsonl
//	datagen -kind ssb -table lineorder -sf 0.1 > lineorder.jsonl
//	datagen -kind adl -n 100000 -data-dir ./wh   # micro-partitions on disk
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"jsonpark"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/ssb"
	"jsonpark/internal/variant"
)

func main() {
	kind := flag.String("kind", "adl", "adl | ssb")
	n := flag.Int("n", 1000, "number of ADL events")
	sf := flag.Float64("sf", 0.1, "SSB scale factor")
	table := flag.String("table", "lineorder", "SSB table: lineorder|customer|supplier|part|date")
	seed := flag.Int64("seed", 42, "generator seed")
	dataDir := flag.String("data-dir", "", "write micro-partitions into a warehouse directory instead of JSON lines on stdout")
	collection := flag.String("collection", "", "collection name for -data-dir (default: \"events\" for adl, the -table name for ssb)")
	flag.Parse()

	var docs []variant.Value
	name := *collection
	switch *kind {
	case "adl":
		docs = hepdata.Events(*seed, *n)
		if name == "" {
			name = "events"
		}
	case "ssb":
		tabs := ssb.Generate(*seed, ssb.SizesForScaleFactor(*sf))
		switch *table {
		case "lineorder":
			docs = tabs.Lineorder
		case "customer":
			docs = tabs.Customer
		case "supplier":
			docs = tabs.Supplier
		case "part":
			docs = tabs.Part
		case "date":
			docs = tabs.Date
		default:
			fatal(fmt.Errorf("unknown -table %q", *table))
		}
		if name == "" {
			name = *table
		}
	default:
		fatal(fmt.Errorf("unknown -kind %q", *kind))
	}

	if *dataDir != "" {
		if err := writeWarehouse(*dataDir, name, docs); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "datagen: wrote %d rows to %s/%s\n", len(docs), *dataDir, name)
		return
	}

	out := bufio.NewWriter(os.Stdout)
	for _, d := range docs {
		fmt.Fprintln(out, d.JSON())
	}
	// A short write to a full disk or closed pipe surfaces here, not as a
	// silently truncated dataset.
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}

// writeWarehouse loads the documents into a persistent warehouse at dir,
// staging one column per top-level field (union across documents, in
// first-seen order), and flushes so every row reaches disk.
func writeWarehouse(dir, name string, docs []variant.Value) error {
	w := jsonpark.Open(jsonpark.WithDataDir(dir))
	var cols []string
	seen := map[string]bool{}
	for _, d := range docs {
		for _, k := range d.AsObject().Keys() {
			if !seen[k] {
				seen[k] = true
				cols = append(cols, k)
			}
		}
	}
	if err := w.CreateCollection(name, cols); err != nil {
		return err
	}
	for _, d := range docs {
		if err := w.LoadObject(name, d); err != nil {
			return err
		}
	}
	return w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
