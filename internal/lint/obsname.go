package lint

import (
	"go/ast"
	"regexp"
	"slices"
	"strconv"
)

// obsname: a literal metric or flight-recorder event name must be
// lowercase snake_case with at least two segments.
//
// Both surfaces join what every node in the cluster reports by name
// alone.  The /debug surface aggregates metrics across nodes, named with
// the owning package first (orb_client_calls, ras_probe_failures); the
// merged cluster timeline (itv-admin events / trace) interleaves every
// node's flight-recorder ring, and the event name — owning subsystem first
// (ssc_object_death, names_audit_evicted) — is the only key an operator
// greps a failover by.  A name minted outside the convention (camelCase,
// a stray dot, a single bare word) silently forks the namespace.  Computed
// names are the caller's problem to keep lawful; the obs package itself,
// whose tests mint arbitrary names to exercise the registry and the ring,
// is exempt.
type obsName struct{}

func (obsName) Name() string { return "obsname" }
func (obsName) Doc() string {
	return "obs metric or event name not lowercase snake_case with >=2 segments (pkg_noun_verb, subsystem_event)"
}

// obsNameRE: lowercase snake_case, at least two segments, first
// character alphabetic.
var obsNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// obsNameSites are the calls that take a name: the obs type whose method
// it is ("" for a package function), the functions, the position of the
// name argument, and what a bad name is told.
var obsNameSites = []struct {
	recv  string
	funcs []string
	arg   int
	msg   string
}{
	{"Registry", []string{"Counter", "Gauge", "Histogram", "HistogramBuckets"}, 0,
		"metric name %q is not pkg_noun_verb (lowercase snake_case, >=2 segments); off-convention names never aggregate on the cluster /debug surface"},
	{"", []string{"L"}, 0,
		"metric name %q is not pkg_noun_verb (lowercase snake_case, >=2 segments); off-convention names never aggregate on the cluster /debug surface"},
	{"Recorder", []string{"Record"}, 2, // Record(t, trace, name, detail)
		"event name %q is not subsystem_event (lowercase snake_case, >=2 segments); off-convention names never line up in the merged cluster timeline"},
}

func (obsName) Run(p *Pass) {
	obsPath := p.Pkg.ModPath + "/internal/obs"
	if p.Pkg.Path == obsPath {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, site := range obsNameSites {
				if len(call.Args) <= site.arg || !slices.Contains(site.funcs, sel.Sel.Name) {
					continue
				}
				matched := p.PkgFunc(call, obsPath, sel.Sel.Name)
				if site.recv != "" {
					matched = isNamed(p.TypeOf(sel.X), obsPath, site.recv)
				}
				lit, ok := call.Args[site.arg].(*ast.BasicLit)
				if !matched || !ok {
					continue
				}
				if name, err := strconv.Unquote(lit.Value); err == nil && !obsNameRE.MatchString(name) {
					p.Reportf(lit.Pos(), site.msg, name)
				}
			}
			return true
		})
	}
}
