package analysis

import (
	"fmt"
	"go/ast"
)

// ChargeFlowAnalyzer verifies that every CFG path from an entry point of
// the stack to a fabric transmit passes a CPU-cost charge somewhere along
// the call chain — charges made inside helpers count, and transmits buried
// inside helpers are found.
func ChargeFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "chargeflow",
		Doc:  "every path from an entry point to a fabric transmit must charge CPU cost",
		Explain: `docs/ARCHITECTURE.md, invariant 2 ("Costs are charged where the hardware
pays them"): host CPU costs are charged to the calling process, NIC
service runs on per-node busy-until timelines, wire time lives in the
fabric. A fabric transmit (Policy.ChargeRequired: Cluster.Send, SendMgmt,
Attach) models a NIC or switch doing real work, so any route
the software takes to one must book cost against virtual time
(Policy.ChargeFuncs: ChargeHost, serviceTx/serviceRx/sendFrame,
Compute/Sleep) or that work becomes free and every latency figure built on
top quietly understates the device. This rule computes, over the shared
call graph, two summaries to fixpoint: alwaysCharges(F) — every path
through F charges before returning — and uncharged(F) — some path from
F's entry reaches a transmit (a ChargeRequired call, or a call into an
uncharged callee) with no prior charge (a ChargeFuncs call, or a call into
an alwaysCharges callee). A diagnostic fires, citing the first witness
site, for every uncharged entry point of a Policy.ChargeRootPkgs package
(mpi, via, core): a function that is exported, that nothing in the module
calls (a callback passed as a function value), or that the scheduler fires
through a Policy.EventEdges interface (an event is its own activation, so
the edge is not followed). Reviewed exceptions (the out-of-band bootstrap
network, boot-time attach) live under Policy.Exceptions["chargeflow"].`,
		Subject: subjFunc,
		Run:     runChargeFlow,
	}
}

// cfSite is one precomputed call site relevant to the uncharged fixpoint:
// a transmit, or a call whose callee may itself be uncharged.
type cfSite struct {
	node            ast.Node
	beforeUncharged bool // some path reaches this site with no charge yet
	direct          bool // a ChargeRequired call
	callees         []string
	desc            string // what the site calls, for the message
}

func runChargeFlow(m *Module, p *Policy) []Diagnostic {
	ip := m.Interproc()

	// alwaysCharges(F): every path through F charges before returning.
	// ChargeFuncs members are charges by definition.
	_, charges := ip.alwaysOnEveryPath(p.ChargeFuncs)
	// Bit 0: no charge yet on some path. A deferred charge runs at return,
	// after every transmit below the defer: it counts toward alwaysCharges,
	// never at a site.
	transfer := func(pkg *Package, node ast.Node, in uint64) uint64 {
		if _, atReturn := node.(*ast.DeferStmt); !atReturn && charges(pkg, node) {
			return 0
		}
		return in
	}

	// Precompute, per function, the sites the uncharged fixpoint inspects,
	// each with its "may be uncharged here" entry state. The dataflow only
	// depends on alwaysCharges (now fixed), so this runs once.
	sites := map[string][]cfSite{}
	eventTarget := map[string]bool{} // functions the scheduler fires through a Policy.EventEdges interface
	skip := func(key string) bool {
		return p.ChargeFuncs[key] || p.excused("chargeflow", key)
	}
	for _, key := range ip.Keys {
		if skip(key) {
			continue
		}
		f := ip.Funcs[key]
		for _, u := range f.Units {
			// A literal runs in its own activation (a scheduled callback),
			// where nothing charged by the enclosing body is still "on the
			// path" — it starts uncharged.
			states := ip.flow(u.body).solve(1<<0, func(node ast.Node, in uint64) uint64 {
				return transfer(f.Pkg, node, in)
			})
			inspectSkipLits(u.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				qual := calleeName(m, f.Pkg, call)
				transmits := p.ChargeRequired[qual]
				callees := resolveSiteCallees(ip, key, call)
				if isEventEdge(m, p, f.Pkg, call) {
					// The event runs in its own activation: not on this path,
					// but an entry point of its own.
					for _, callee := range callees {
						eventTarget[callee] = true
					}
					return true
				}
				if !transmits && len(callees) == 0 {
					return true
				}
				in, reached := states.before(call)
				if !reached {
					return true
				}
				sites[key] = append(sites[key], cfSite{
					node:            call,
					beforeUncharged: in&(1<<0) != 0,
					direct:          transmits,
					callees:         callees,
					desc:            qual,
				})
				return true
			})
		}
	}

	// uncharged: least fixpoint over the precomputed sites.
	uncharged := map[string]bool{}
	witness := map[string]cfSite{}
	ip.fixpoint(func(key string) bool {
		if uncharged[key] || skip(key) {
			return false
		}
		for _, s := range sites[key] {
			if !s.beforeUncharged {
				continue
			}
			hit := s.direct
			if !hit {
				for _, callee := range s.callees {
					if uncharged[callee] {
						hit = true
						break
					}
				}
			}
			if hit {
				uncharged[key] = true
				witness[key] = s
				return true
			}
		}
		return false
	})

	// Report the entry points of the root packages: exported functions,
	// functions with no module callers (callbacks handed to the scheduler or
	// the fabric as function values, which the call graph cannot follow),
	// and the event objects the scheduler fires.
	var ds []Diagnostic
	for _, key := range ip.Keys {
		f := ip.Funcs[key]
		if !uncharged[key] || !p.ChargeRootPkgs[f.Pkg.Rel] || !(f.Exported || len(ip.Callers(key)) == 0 || eventTarget[key]) {
			continue
		}
		w := witness[key]
		what := "a fabric transmit"
		if !w.direct {
			what = fmt.Sprintf("an uncharged path in %s", firstUnchargedCallee(w, uncharged))
		} else if w.desc != "" {
			what = w.desc
		}
		ds = append(ds, Diagnostic{
			Pos:  m.Position(w.node.Pos()),
			Rule: "chargeflow",
			Message: fmt.Sprintf("entry point %s reaches %s without charging CPU cost on some path; the transmit becomes free in virtual time — charge (ChargeHost/Compute) before it, or justify under Policy.Exceptions[\"chargeflow\"]",
				key, what),
		})
	}
	return ds
}

// firstUnchargedCallee names the callee the witness path descends into.
func firstUnchargedCallee(s cfSite, uncharged map[string]bool) string {
	for _, callee := range s.callees {
		if uncharged[callee] {
			return callee
		}
	}
	return "a callee"
}
