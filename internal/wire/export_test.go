package wire

import (
	"reflect"
	"sort"
)

// RegisteredTypes returns every registered message type by wire name.
func RegisteredTypes() map[string]reflect.Type {
	out := make(map[string]reflect.Type)
	for name, mt := range reg.Load().byName {
		out[name] = mt.typ
	}
	return out
}

// RegisteredNames returns every registered wire name, sorted.
func RegisteredNames() []string {
	var out []string
	for name := range reg.Load().byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
