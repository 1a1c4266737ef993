// Fixture for the unsafeimport analyzer: package unsafe belongs to
// internal/variant/layout.go alone. Any other importer is flagged at the
// import, whatever it goes on to do with it.
package unsafeimport

import (
	"fmt"
	"unsafe" // want `import of unsafe outside internal/variant/layout.go`
)

// Even a Sizeof — harmless on its own — needs the import, so it is caught.
func wordSize() string {
	return fmt.Sprint(unsafe.Sizeof(uintptr(0)))
}
