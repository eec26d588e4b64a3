package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
)

// PackageFacts is the fact table of one analyzed package: analyzer name →
// object key → gob-encoded fact. Encoding on export and decoding on import
// gives every importer its own copy, so an analyzer may keep or extend a
// decoded fact (lockorder's lock lists and graph edges are slices) without
// touching the exporter's.
type PackageFacts map[string]map[string][]byte

// EncodeFact serializes a fact value for storage in a PackageFacts table.
func EncodeFact(fact Fact) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		return nil, fmt.Errorf("analysis: encode fact %T: %w", fact, err)
	}
	return buf.Bytes(), nil
}

// DecodeFact deserializes table bytes into fact (a pointer to the concrete
// fact struct).
func DecodeFact(data []byte, fact Fact) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(fact); err != nil {
		return fmt.Errorf("analysis: decode fact %T: %w", fact, err)
	}
	return nil
}

// factAccess wires a Pass's fact methods to the current package's table
// plus a resolver for dependency packages' tables.
type factAccess struct {
	analyzer string
	selfPath string
	self     PackageFacts
	deps     func(pkgPath string) PackageFacts
}

func (fa *factAccess) importFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	var table PackageFacts
	if obj.Pkg().Path() == fa.selfPath {
		table = fa.self
	} else if fa.deps != nil {
		table = fa.deps(obj.Pkg().Path())
	}
	if table == nil {
		return false
	}
	data, ok := table[fa.analyzer][key]
	if !ok {
		return false
	}
	return DecodeFact(data, fact) == nil
}

func (fa *factAccess) importPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	var table PackageFacts
	if pkg.Path() == fa.selfPath {
		table = fa.self
	} else if fa.deps != nil {
		table = fa.deps(pkg.Path())
	}
	if table == nil {
		return false
	}
	data, ok := table[fa.analyzer][PackageFactKey]
	if !ok {
		return false
	}
	return DecodeFact(data, fact) == nil
}

func (fa *factAccess) exportPackageFact(fact Fact) {
	data, err := EncodeFact(fact)
	if err != nil {
		return
	}
	if fa.self[fa.analyzer] == nil {
		fa.self[fa.analyzer] = make(map[string][]byte)
	}
	fa.self[fa.analyzer][PackageFactKey] = data
}

func (fa *factAccess) exportFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != fa.selfPath {
		return
	}
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	data, err := EncodeFact(fact)
	if err != nil {
		return
	}
	if fa.self[fa.analyzer] == nil {
		fa.self[fa.analyzer] = make(map[string][]byte)
	}
	fa.self[fa.analyzer][key] = data
}
