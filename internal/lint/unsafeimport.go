package lint

import (
	"path/filepath"
	"strconv"
)

// unsafeHome is the one file allowed to import unsafe: the physical layout
// of variant.Value (string bytes, array elements and *Object share one
// pointer word, reassembled with unsafe.String/unsafe.Slice).
const (
	unsafeHomePkg  = "internal/variant"
	unsafeHomeFile = "layout.go"
)

// UnsafeImport confines package unsafe to internal/variant/layout.go. The
// compact Value layout is sound only because every (pointer, length) pair
// it reassembles was taken from a live Go string or slice a few lines
// away, in one file a reviewer can hold in their head; a second importer
// would spread that proof obligation across the module. jsqlint loads
// non-test files only, so tests may still use unsafe.Sizeof to pin the
// layout. `make race` is the checkptr gate for the one permitted file.
var UnsafeImport = &Analyzer{
	Name: "unsafeimport",
	Doc:  "package unsafe is imported by internal/variant/layout.go and nowhere else",
	Run:  runUnsafeImport,
}

func runUnsafeImport(pass *Pass) error {
	home := pass.Pkg.Path() == unsafeHomePkg || hasPathSuffix(pass.Pkg.Path(), unsafeHomePkg)
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err != nil || path != "unsafe" {
				continue
			}
			if home && filepath.Base(pass.Fset.Position(f.Pos()).Filename) == unsafeHomeFile {
				continue
			}
			pass.Reportf(imp.Pos(), "import of unsafe outside %s/%s; build on the variant API instead", unsafeHomePkg, unsafeHomeFile)
		}
	}
	return nil
}
