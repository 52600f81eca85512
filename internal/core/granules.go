package core

import (
	"math"

	"dqo/internal/cost"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// The granule builders. Each granule family has exactly one function that
// turns the chosen child plan(s) and a choice into a costed *Plan: output
// properties, cardinality, cumulative cost, and footprint (Width/Mem). The
// search policies — exact and beam-capped DP (optimizer.go) and the greedy
// pass (greedy.go) — only decide which (children, choice) tuples to ask for
// and which results to keep; none of them builds a Plan itself. Builders do
// not count alternatives: that is the policy's bookkeeping.

// scanPlan builds a scan of logical scan n reading rel: the base relation,
// an Algorithmic-View variant of it (av labels the view), or, with enc set,
// the compressed-scan twin that decodes every segment once and streams plain
// morsels. All three produce the same rows; only properties and cost differ.
func (o *optimizer) scanPlan(n *logical.Scan, rel *storage.Relation, av string, enc props.Compression) *Plan {
	rows := o.estimator().Estimate(n)
	p := &Plan{
		Op: OpScan, Table: n.Table, Rel: rel, AV: av, Enc: enc,
		Props: o.scanPropsOf(rel),
		Rows:  rows,
	}
	if enc != props.NoCompression {
		p.Cost = o.mode.Model.ScanCompressed(rows, enc)
	} else {
		p.Cost = o.mode.Model.Scan(rows)
	}
	setFootprint(p, 0)
	return p
}

// filterCost is the work of filtering rows input rows, fanned across a
// morsel pipe of dop workers when dop > 1.
func (o *optimizer) filterCost(rows float64, dop int) float64 {
	if dop > 1 {
		return o.mode.Model.Parallel(o.mode.Model.Filter(rows), dop)
	}
	return o.mode.Model.Filter(rows)
}

// filterPlan builds the decoded-row filter of n over c with rows output rows:
// serial at dop 0, otherwise the parallel pipe over c's streaming segment.
// Filtering preserves order, clustering, correlations, and domains-as-bounds
// (a filtered dense domain stays SPH-addressable; it is merely no longer
// minimal), and the pipe re-emits morsels in input order, so both variants
// carry c's properties — parallelism is purely a cost trade.
func (o *optimizer) filterPlan(n *logical.Filter, c *Plan, rows float64, dop int) *Plan {
	p := &Plan{
		Op: OpFilter, Children: []*Plan{c}, Pred: n.Pred, DOP: dop,
		Props: c.Props,
		Rows:  rows,
		Cost:  c.Cost + o.filterCost(c.Rows, dop),
	}
	setFootprint(p, 0)
	return p
}

// crackFilterPlan builds the adaptive-index AV filter of n, or returns nil
// when no cracked index answers n's predicate over a bare base scan. The
// index touches only qualifying pieces (cracking cost amortises to ~zero
// over a workload) and emits in piece order, so order knowledge is lost.
// Its positions point into the plain base relation, so the subsumed child
// is the plain scan.
func (o *optimizer) crackFilterPlan(n *logical.Filter, rows float64) *Plan {
	scan, isScan := n.Input.(*logical.Scan)
	if o.mode.CrackedIdx == nil || !isScan {
		return nil
	}
	col, lo, hi, ok := predRange(n.Pred)
	if !ok {
		return nil
	}
	idx, have := o.mode.CrackedIdx.Cracked(scan.Table, col)
	if !have {
		return nil
	}
	base := o.scanPlan(scan, scan.Rel, "", props.NoCompression)
	p := &Plan{
		Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
		AV: idx.Label(), Crack: idx, CrackLo: lo, CrackHi: hi,
		Props: base.Props.DropOrder(),
		Rows:  rows,
		Cost:  base.Cost + o.mode.Model.Filter(rows),
	}
	setFootprint(p, 0)
	return p
}

// encFilterPlan builds the direct-on-compressed filter of n, or returns nil
// when n's predicate is not a range over an encoded uint32 column of a bare
// base scan. Zone maps answer whole segments, RLE runs decide once per run,
// packed segments compare in delta space, and only qualifying rows are
// gathered — ascending, so the output order and hence the properties match
// the decoded filter. The model sees the exact zone-map census. The kernel
// reads the encoded payload, so the subsumed child is the compressed scan.
func (o *optimizer) encFilterPlan(n *logical.Filter, rows float64) *Plan {
	scan, isScan := n.Input.(*logical.Scan)
	if !isScan {
		return nil
	}
	col, lo, hi, ok := predRange(n.Pred)
	if !ok {
		return nil
	}
	plo, phi, ok := encBounds(lo, hi)
	if !ok {
		return nil
	}
	enc, skipped, total, work, ok := encFilterTarget(scan.Rel, col, plo, phi)
	if !ok {
		return nil
	}
	base := o.scanPlan(scan, scan.Rel, "", relCompression(scan.Rel))
	p := &Plan{
		Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
		Enc: enc, EncCol: col, EncLo: plo, EncHi: phi,
		SegsSkipped: skipped, SegsTotal: total,
		Props: base.Props,
		Rows:  rows,
		Cost:  base.Cost + o.mode.Model.FilterCompressed(base.Rows, float64(work), rows, enc),
	}
	setFootprint(p, 0)
	return p
}

// projectPlan builds projection n over c. Projection is zero-cost; it
// inherits the child's pipe membership so a project above a parallel filter
// stays inside the same morsel pipe.
func projectPlan(n *logical.Project, c *Plan) *Plan {
	dop := 0
	if c.Op == OpFilter || c.Op == OpProject {
		dop = c.DOP
	}
	p := &Plan{
		Op: OpProject, Children: []*Plan{c}, Cols: n.Cols, DOP: dop,
		Props: c.Props.Project(n.Cols...),
		Rows:  c.Rows,
		Cost:  c.Cost,
	}
	setFootprint(p, 0)
	return p
}

// noopSortPlan wraps a child already sorted on key: the user sort is a
// no-op kept for plan-shape fidelity at zero cost.
func noopSortPlan(c *Plan, key string) *Plan {
	p := &Plan{
		Op: OpSort, Children: []*Plan{c}, SortKey: key, SortKind: sortx.Radix,
		Props: c.Props, Rows: c.Rows, Cost: c.Cost,
	}
	setFootprint(p, 0)
	return p
}

// sortCost is the work of sorting rows rows with sk, split into per-worker
// sorted runs and a k-way merge when dop > 1.
func (o *optimizer) sortCost(rows float64, sk sortx.Kind, dop int) float64 {
	if dop > 1 {
		return o.mode.Model.Parallel(o.mode.Model.SortBy(rows, sk), dop)
	}
	return o.mode.Model.SortBy(rows, sk)
}

// sortPlan wraps child in a sort by key (enforcer or user sort), serial at
// dop 0. The parallel twin produces identical output, so identical
// properties; only the cost differs.
func (o *optimizer) sortPlan(child *Plan, key string, sk sortx.Kind, enforcer bool, dop int) *Plan {
	p := &Plan{
		Op: OpSort, Children: []*Plan{child},
		SortKey: key, SortKind: sk, Enforcer: enforcer, DOP: dop,
		Props: child.Props.AfterSortBy(key),
		Rows:  child.Rows,
		Cost:  child.Cost + o.sortCost(child.Rows, sk, dop),
	}
	setFootprint(p, 0)
	return p
}

// joinChoice builds one fully resolved join choice with the build role on
// the buildKey side.
func joinChoice(kind physical.JoinKind, opt physical.JoinOptions, buildKey, probeKey string) physio.JoinChoice {
	l, r := kind.Requirements(buildKey, probeKey)
	return physio.JoinChoice{Kind: kind, Opt: opt, LeftReqs: l, RightReqs: r,
		Tree: physio.JoinTree(kind, opt, buildKey, probeKey)}
}

// joinRoles returns the build and probe inputs of join n over lp, rp and
// their keys: the left input builds unless swapped.
func joinRoles(n *logical.Join, lp, rp *Plan, swapped bool) (build, probe *Plan, buildKey, probeKey string) {
	if swapped {
		return rp, lp, n.RightKey, n.LeftKey
	}
	return lp, rp, n.LeftKey, n.RightKey
}

// indexJoin resolves the AV-backed join of n: the left input must be the
// bare base scan of a table with a prebuilt index on the join key, and the
// granule is the index's family (SPH directory or hash) with default
// options. idx is nil when no index applies.
func (o *optimizer) indexJoin(n *logical.Join) (scan *logical.Scan, idx PrebuiltIndex, ch physio.JoinChoice) {
	scan, ok := n.Left.(*logical.Scan)
	if o.mode.Indexes == nil || !ok {
		return nil, nil, ch
	}
	idx, ok = o.mode.Indexes.Index(scan.Table, n.LeftKey)
	if !ok {
		return nil, nil, ch
	}
	kind := physical.HJ
	if idx.SPH() {
		kind = physical.SPHJ
	}
	return scan, idx, physio.JoinChoice{Kind: kind, Tree: physio.JoinTree(kind, physical.JoinOptions{}, n.LeftKey, n.RightKey)}
}

// joinPlan builds join n over lp and rp with granule ch, whose requirements
// the build/probe inputs already satisfy. swapped (join commutativity) puts
// the build role on rp; the output schema is unchanged. distinct is the
// build key's distinct count and rows the estimated output cardinality.
// A non-nil idx makes it the AV-backed join over lp, the bare base scan:
// the build side was materialised offline, so only the probe is charged
// and no build working set is resident.
func (o *optimizer) joinPlan(n *logical.Join, lp, rp *Plan, ch physio.JoinChoice, swapped bool, idx PrebuiltIndex, rows, distinct float64) *Plan {
	build, probe, buildKey, probeKey := joinRoles(n, lp, rp, swapped)
	p := &Plan{
		Op: OpJoin, Children: []*Plan{lp, rp},
		Join: ch, LeftKey: n.LeftKey, RightKey: n.RightKey, Swapped: swapped,
		DOP:    ch.Opt.Parallel,
		KeyDom: build.Props.Domain(buildKey),
		Props:  o.restrict(o.joinOutProps(ch, build.Props, probe.Props, buildKey, probeKey)),
		Rows:   rows,
	}
	buildRows := build.Rows
	if idx != nil {
		p.AV, p.Index = idx.Label(), idx
		buildRows = 0 // charge the probe only
	}
	p.Cost = lp.Cost + rp.Cost + o.mode.Model.Join(ch, buildRows, probe.Rows, distinct)
	setFootprint(p, distinct)
	return p
}

// groupChoice builds one fully resolved grouping choice.
func groupChoice(kind physical.GroupKind, opt physical.GroupOptions, key string) physio.GroupChoice {
	return physio.GroupChoice{Kind: kind, Opt: opt, Reqs: kind.Requirements(key),
		Tree: physio.GroupTree(kind, opt, key)}
}

// groupPlan builds grouping n over c with granule ch, whose requirements c
// already satisfies; groups is the estimated group count and rows the
// estimated output cardinality.
func (o *optimizer) groupPlan(n *logical.GroupBy, c *Plan, ch physio.GroupChoice, rows, groups float64) *Plan {
	p := &Plan{
		Op: OpGroup, Children: []*Plan{c},
		Group: ch, GroupKey: n.Key, Aggs: n.Aggs,
		DOP:    ch.Opt.Parallel,
		KeyDom: c.Props.Domain(n.Key),
		Props:  o.restrict(ch.Kind.OutputProps(c.Props, n.Key)),
		Rows:   rows,
		Cost:   c.Cost + o.mode.Model.Group(ch, c.Rows, groups),
	}
	setFootprint(p, groups)
	return p
}

// setFootprint derives the node's estimated output row width and peak
// resident memory (Plan.Width / Plan.Mem) from its children: breakers
// account their materialised input, kernel working set, and output;
// streaming operators only what their consumer accumulates. distinct sizes
// the join (build key) and grouping (group count) working sets; other
// operators ignore it.
func setFootprint(p *Plan, distinct float64) {
	switch p.Op {
	case OpScan:
		p.Width = 8
		if n := p.Rel.NumRows(); n > 0 {
			p.Width = float64(p.Rel.MemBytes()) / float64(n)
		}
		p.Mem = 0 // morsels are zero-copy views of the base table
	case OpFilter:
		c := p.Children[0]
		p.Width = c.Width
		p.Mem = math.Max(c.Mem, p.Rows*p.Width)
	case OpProject:
		c := p.Children[0]
		p.Width = 8 * float64(len(p.Cols))
		if c.Width > 0 && p.Width > c.Width {
			p.Width = c.Width
		}
		p.Mem = c.Mem
	case OpSort:
		c := p.Children[0]
		p.Width = c.Width
		resident := c.Rows*c.Width + cost.MemSort(c.Rows, p.DOP > 1) + p.Rows*p.Width
		p.Mem = math.Max(c.Mem, resident)
	case OpJoin:
		// Both inputs materialised, the kernel's working set, and the
		// emitted pair-gathered output resident at once.
		lp, rp := p.Children[0], p.Children[1]
		buildRows, probeRows := lp.Rows, rp.Rows
		if p.Swapped {
			buildRows, probeRows = rp.Rows, lp.Rows
		}
		if p.Index != nil {
			buildRows = 0 // build side prepaid offline: no build working set
		}
		p.Width = lp.Width + rp.Width
		resident := lp.Rows*lp.Width + rp.Rows*rp.Width +
			cost.MemJoin(p.Join, buildRows, probeRows, distinct, p.Rows) + p.Rows*p.Width
		p.Mem = math.Max(math.Max(lp.Mem, rp.Mem), resident)
	case OpGroup:
		c := p.Children[0]
		p.Width = 4 + 8*float64(len(p.Aggs))
		resident := c.Rows*c.Width + cost.MemGroup(p.Group, c.Rows, distinct) + p.Rows*p.Width
		p.Mem = math.Max(c.Mem, resident)
	}
}
