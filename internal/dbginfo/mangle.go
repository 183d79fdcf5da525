package dbginfo

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Mangling rules of the (simulated) PEDF/P2012 tool-chain, reproducing the
// two examples the paper gives verbatim:
//
//	filter "Ipf" WORK method     → IpfFilter_work_function
//	controller of module "pred"  → _component_PredModule_anon_0_work
//
// Runtime API functions keep their plain C names (pedf_link_push, ...).

// titleCase upper-cases the first rune only (strings.Title is deprecated
// and does more than needed).
func titleCase(s string) string {
	if s == "" {
		return s
	}
	r := []rune(s)
	r[0] = unicode.ToUpper(r[0])
	return string(r)
}

// mangle returns prefix + titleCase(name) + the suffixes, built in one
// allocation (names that are not valid UTF-8 take titleCase's path,
// which replaces their invalid bytes).
func mangle(prefix, name string, suffix ...string) string {
	if !utf8.ValidString(name) {
		return prefix + titleCase(name) + strings.Join(suffix, "")
	}
	n := len(prefix) + len(name) + utf8.UTFMax
	for _, s := range suffix {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(prefix)
	if r, size := utf8.DecodeRuneInString(name); size > 0 {
		b.WriteRune(unicode.ToUpper(r))
		b.WriteString(name[size:])
	}
	for _, s := range suffix {
		b.WriteString(s)
	}
	return b.String()
}

// MangleFilterWork returns the linker name of a filter's WORK method.
func MangleFilterWork(filter string) string {
	return mangle("", filter, "Filter_work_function")
}

// MangleControllerWork returns the linker name of a module controller's
// WORK method.
func MangleControllerWork(module string) string {
	return mangle("_component_", module, "Module_anon_0_work")
}

// MangleFilterData returns the linker name of a filter's private data or
// attribute object.
func MangleFilterData(filter, data string) string {
	return mangle("", filter, "Filter_data_", data)
}

// MangleFilterAttr returns the linker name of a filter's attribute
// object: MangleFilterData(filter, "attr_"+attr).
func MangleFilterAttr(filter, attr string) string {
	return mangle("", filter, "Filter_data_attr_", attr)
}

// Demangled holds the result of demangling a linker name.
type Demangled struct {
	Entity EntityKind
	Owner  string // filter or module name (lower-cased as in the ADL)
	Member string // "work" or the data member name
}

// Demangle inverts the mangling rules. The boolean is false for names
// that do not follow any known scheme (e.g. runtime C functions).
func Demangle(name string) (Demangled, bool) {
	if strings.HasPrefix(name, "_component_") && strings.HasSuffix(name, "Module_anon_0_work") {
		mod := strings.TrimSuffix(strings.TrimPrefix(name, "_component_"), "Module_anon_0_work")
		if mod == "" {
			return Demangled{}, false
		}
		return Demangled{Entity: EntController, Owner: lowerFirst(mod), Member: "work"}, true
	}
	if i := strings.Index(name, "Filter_work_function"); i > 0 && name[i:] == "Filter_work_function" {
		return Demangled{Entity: EntFilter, Owner: lowerFirst(name[:i]), Member: "work"}, true
	}
	if i := strings.Index(name, "Filter_data_"); i > 0 {
		member := name[i+len("Filter_data_"):]
		if member == "" {
			return Demangled{}, false
		}
		return Demangled{Entity: EntFilter, Owner: lowerFirst(name[:i]), Member: member}, true
	}
	return Demangled{}, false
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	r := []rune(s)
	r[0] = unicode.ToLower(r[0])
	return string(r)
}

// PrettyWork returns the human name the dataflow debugger shows for a
// work method, e.g. "ipf::work".
func PrettyWork(owner string) string {
	return owner + "::work"
}
