package engine

import (
	"sync"
	"sync/atomic"
)

// The projection planner — the engine's first whole-plan optimizer pass.
//
// Forcing a dataset no longer just runs its fused chain: it opens a planning
// session over every unmaterialized node reachable through the lineage DAG
// (lazy narrow chains and deferred wide ops alike), runs one backward pass
// computing the minimal field demand on every edge, and then materializes
// the prerequisite nodes producers-first with their resolved demands. The
// demand at an edge is what the consumer reads itself plus every demanded
// output field it does not write (fieldFX.inNeed); a node consumed by
// several edges takes the union; a node with consumers outside the session
// (claimed but unreachable from this sink) widens to FieldsAll, because
// their demands are unknown. Undeclared ops demand everything, so a
// forgotten declaration costs pruning, never correctness.
//
// Where the masks land:
//   - fused narrow chains thread the demand dynamically: each composed
//     closure reads its input through partitionNeed with fx.inNeed(need),
//     so source blocks decode through Project(mask) with no one annotating
//     anything;
//   - deferred wide ops (shuffle.go) receive their resolved OUTPUT demand
//     and encode map-side buckets through Project(demand) — fewer bytes on
//     the mproc TCP wire, not just fewer decoded;
//   - materialized interior nodes record their demand as Dataset.content,
//     and a later wider read recomputes through the retained lineage
//     closure instead of serving silently-zero fields.
//
// Planning is a pure function of the DAG and the declared effects, so under
// an SPMD executor every rank resolves identical masks from its own copy of
// the driver program — no masks travel on the wire.
//
// Context.DisableProjectionPlanner is the ablation: sinks force with
// FieldsAll, partitionNeed coerces every demand to FieldsAll, and wide ops
// run eagerly at call time exactly as before this pass existed.

// planMeta is the type-erased planning view of one unmaterialized dataset:
// a lazy narrow chain (wide == false) or a deferred wide op (wide == true).
// The generic constructors in lineage.go and shuffle.go capture their
// dataset in the run closure; the planner needs only the graph shape, the
// per-edge effects, and a way to force the node once.
type planMeta struct {
	// wide marks a deferred wide op: it can never fuse into a consumer's
	// task (its output partitioning is unrelated to its input's), so a
	// session always materializes it before any consumer runs.
	wide bool
	// inputs are the upstream edges; nil entries and edges to materialized
	// datasets are skipped during planning (their data already exists — the
	// demand on them only shapes decode masks, threaded dynamically).
	inputs []planInput

	// children counts consumers claimed over this node (lazy narrow ops,
	// deferred wide ops). Claims only count — nothing forces at claim time;
	// the session's widening rule compares claims against the edges it can
	// actually see.
	children atomic.Int32

	// once/err/done give the node run-exactly-once semantics shared by
	// Force, planning sessions, and sticky-error reads.
	once sync.Once
	err  error
	done atomic.Bool
	// run materializes the node with the given output demand. It must not
	// re-enter the planner (sessions order prerequisites themselves).
	run func(need FieldMask) error

	// Planning scratch, valid only for the session whose stamp matches
	// (guarded by planMu).
	stamp    uint64
	demand   FieldMask
	arrived  int
	resolved FieldMask
}

// planInput is one consumer→producer edge of the plan graph, carrying the
// effect record that transforms output demand into input demand across it.
type planInput struct {
	m  *planMeta
	fx fieldFX
}

// force materializes the node exactly once with the given demand; later
// calls (any demand) return the sticky first result.
func (m *planMeta) force(need FieldMask) error {
	m.once.Do(func() {
		m.err = m.run(need)
		m.done.Store(true)
	})
	return m.err
}

// claim registers one more consumer over the node. Nil-safe: materialized
// inputs have no planning state and need no claim.
func (m *planMeta) claim() {
	if m != nil {
		m.children.Add(1)
	}
}

// planMu serializes planning sessions. Sessions mutate per-node scratch, and
// the lineage DAG can span datasets of many element types, so the lock is
// global rather than per-context; sessions are driver-level and short (graph
// walk only — materialization runs after the lock is released).
var planMu sync.Mutex

// planStamp invalidates stale scratch lazily: a node whose stamp differs
// from the current session's is reinitialized on first visit.
var planStamp uint64

// planStep is one resolved materialization: force node m with demand need.
type planStep struct {
	m    *planMeta
	need FieldMask
}

// runPlanSession plans and executes everything required to materialize sink
// with sinkNeed:
//
//  1. DFS from the sink over input edges collects the unmaterialized
//     subgraph in post-order (every producer before its consumers) and
//     counts, per node, how many in-session edges arrive at it.
//  2. One propagation sweep in reverse post-order (consumers strictly
//     before producers — valid because the DAG is acyclic) resolves each
//     node's output demand: the union of its consumers' edge demands,
//     widened to FieldsAll when the node has more claimed consumers than
//     the session can see, then pushed across each input edge through
//     fx.inNeed.
//  3. Materialization steps run in post-order (producers first): every
//     deferred wide node, every node shared by ≥2 in-session edges or
//     claimed by out-of-session consumers, and the sink itself. Unshared
//     interior narrow nodes are left lazy — they fuse into their consumer's
//     tasks, with the demand threaded dynamically through their closures.
func runPlanSession(sink *planMeta, sinkNeed FieldMask) error {
	planMu.Lock()
	planStamp++
	cur := planStamp
	var nodes []*planMeta
	var visit func(n *planMeta)
	visit = func(n *planMeta) {
		if n.stamp == cur {
			return
		}
		n.stamp = cur
		n.demand = 0
		n.arrived = 0
		n.resolved = 0
		for _, in := range n.inputs {
			if in.m == nil || in.m.done.Load() {
				continue
			}
			visit(in.m)
			in.m.arrived++
		}
		nodes = append(nodes, n)
	}
	visit(sink)
	sink.demand = sinkNeed
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		out := n.demand
		if int(n.children.Load()) > n.arrived {
			// Consumers exist beyond the ones this session reaches (other
			// sinks not yet forced). Their demands are unknowable now, so
			// the node must materialize wide enough for anyone.
			out = FieldsAll
		}
		n.resolved = out
		for _, in := range n.inputs {
			if in.m == nil || in.m.done.Load() {
				continue
			}
			in.m.demand |= in.fx.inNeed(out)
		}
	}
	steps := make([]planStep, 0, len(nodes))
	for _, n := range nodes {
		if n == sink || n.wide || n.arrived > 1 || int(n.children.Load()) > n.arrived {
			steps = append(steps, planStep{m: n, need: n.resolved})
		}
	}
	planMu.Unlock()
	for _, s := range steps {
		if err := s.m.force(s.need); err != nil {
			return err
		}
	}
	return nil
}

// forceSink is the planner-aware entry point behind Dataset.Force and the
// wide-op barriers: plan the reachable subgraph under the given sink demand
// and materialize prerequisites plus the sink. A materialized (or never
// planned) dataset returns its sticky error, matching Force's historical
// no-op contract.
func (d *Dataset[T]) forceSink(need FieldMask) error {
	m := d.meta
	if m == nil {
		return nil
	}
	if m.done.Load() {
		return m.err
	}
	if d.ctx.DisableProjectionPlanner {
		need = FieldsAll
	}
	return runPlanSession(m, need)
}
