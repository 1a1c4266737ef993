package unsafeimport

// The file name alone does not grant the exemption: this layout.go is not
// in internal/variant.
import _ "unsafe" // want `import of unsafe outside internal/variant/layout.go`
