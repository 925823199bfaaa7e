package interconnect

import (
	"fmt"
	"sort"

	"uvmsim/internal/obs"
)

// Fabric is the named-link graph of a multi-tier topology: every
// interconnect in the machine — the per-GPU PCIe links to the host and
// the per-GPU CXL ports into the pool — registered under a unique name
// ("pcie0", "cxl0", ...). The fabric is what generalizes the
// single-Link world: components resolve the link they need by name, and
// metrics publication walks the graph once instead of each link wiring
// itself up.
//
// Iteration order is always name-sorted, never map order, so every walk
// of the fabric is deterministic.
type Fabric struct {
	links map[string]Conn
	names []string // sorted; rebuilt on Add
}

// NewFabric returns an empty link graph.
func NewFabric() *Fabric {
	return &Fabric{links: make(map[string]Conn)}
}

// Add registers a link under its name. Names must be unique and
// non-empty; violations panic, since the topology is assembled once at
// construction time from validated configuration.
func (f *Fabric) Add(name string, c Conn) {
	if name == "" {
		panic("interconnect: fabric link with no name")
	}
	if c == nil {
		panic(fmt.Sprintf("interconnect: fabric link %q is nil", name))
	}
	if _, dup := f.links[name]; dup {
		panic(fmt.Sprintf("interconnect: duplicate fabric link %q", name))
	}
	f.links[name] = c
	f.names = append(f.names, name)
	sort.Strings(f.names)
}

// Link resolves a named link, ok=false when absent.
func (f *Fabric) Link(name string) (Conn, bool) {
	c, ok := f.links[name]
	return c, ok
}

// MustLink resolves a named link and panics when absent — for callers
// whose configuration already guarantees the link exists.
func (f *Fabric) MustLink(name string) Conn {
	c, ok := f.links[name]
	if !ok {
		panic(fmt.Sprintf("interconnect: no fabric link %q", name))
	}
	return c
}

// Names returns the link names in sorted order.
func (f *Fabric) Names() []string {
	out := make([]string, len(f.names))
	copy(out, f.names)
	return out
}

// Len returns the number of links.
func (f *Fabric) Len() int { return len(f.links) }

// PublishMetrics registers snapshot providers for every link, each
// under "link.<name>." — e.g. link.cxl0.h2d.bytes. Links are walked in
// name order so provider registration (and hence snapshot layout) is
// deterministic.
func (f *Fabric) PublishMetrics(reg *obs.Registry) {
	for _, name := range f.names {
		PublishConnMetrics(reg, "link."+name, f.links[name])
	}
}
