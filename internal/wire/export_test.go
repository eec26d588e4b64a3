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

// ErrOverflow is the error decoding a value too wide for its field fails
// with.
var ErrOverflow = errOverflow

// PointerShaped reports whether m's registered type is one an interface
// holds in its data word.
func PointerShaped(m Message) bool { return reg.Load().byTab[unpack(m).tab].direct }
