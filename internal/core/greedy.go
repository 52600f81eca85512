package core

import (
	"fmt"

	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
)

// greedy is the fast planning tier: a search policy over the same granule
// builders the DP tiers use (granules.go), walking the logical tree once
// instead of enumerating. At each site it selects build/probe roles by
// visible selectivity (whichever input the literal predicates, cracked-index
// ranges, and estimated cardinalities make smaller builds), picks the
// granule the input properties already pay for (order-based on sorted
// inputs, SPH on dense keys, hash otherwise), and prices each remaining
// candidate with a single cost-model probe, building only the winner.
// Provably-empty intermediates — a predicate range disjoint from a column's
// exact domain bounds — short-circuit the probing entirely.
//
// want names a column the parent would like sorted (a join key, grouping
// key, or ORDER BY key); scans use it to pick a sorted AV projection and
// filters to avoid destroying an order the parent needs.
func (o *optimizer) greedy(n logical.Node, want string) (*Plan, error) {
	// Optimize validated the tree once at entry; the recursion must not —
	// per-node revalidation would make the single greedy pass quadratic.
	switch n := n.(type) {
	case *logical.Scan:
		return o.greedyScan(n, want), nil
	case *logical.Filter:
		return o.greedyFilter(n, want)
	case *logical.Project:
		c, err := o.greedy(n.Input, want)
		if err != nil {
			return nil, err
		}
		o.stats.Alternatives++
		return projectPlan(n, c), nil
	case *logical.Sort:
		return o.greedySort(n)
	case *logical.Join:
		return o.greedyJoin(n)
	case *logical.GroupBy:
		return o.greedyGroup(n)
	default:
		return nil, fmt.Errorf("core: cannot optimise %T", n)
	}
}

// greedyScan picks the base scan, or — when the parent wants an order an AV
// sorted projection already paid for — that variant, at identical scan cost.
func (o *optimizer) greedyScan(n *logical.Scan, want string) *Plan {
	o.stats.Alternatives++
	p := o.scanPlan(n, n.Rel, "", props.NoCompression)
	if o.mode.Scans != nil && want != "" && !p.Props.SortedOn(want) {
		for _, v := range o.mode.Scans.ScanVariants(n.Table) {
			if o.scanPropsOf(v.Rel).SortedOn(want) {
				o.stats.Alternatives++
				return o.scanPlan(n, v.Rel, v.Label, props.NoCompression)
			}
		}
	}
	// Compressed-scan twin: one strict-< probe, so models that cannot see
	// storage format (Paper) keep the plain scan on the tie.
	if enc := relCompression(n.Rel); enc != props.NoCompression {
		o.stats.Alternatives++
		if o.mode.Model.ScanCompressed(p.Rows, enc) < p.Cost {
			return o.scanPlan(n, n.Rel, "", enc)
		}
	}
	return p
}

// provablyEmpty reports whether pred provably selects nothing from an input
// with the given properties: its single-column key range is disjoint from
// the column's exact domain bounds. This is the visible-selectivity early
// exit — no statistics beyond what the property vector already carries.
func provablyEmpty(in props.Set, pred expr.Expr) bool {
	col, lo, hi, ok := predRange(pred)
	if !ok {
		return false
	}
	d := in.Domain(col)
	if !d.Known {
		return false
	}
	return lo > d.Hi || hi <= d.Lo
}

func (o *optimizer) greedyFilter(n *logical.Filter, want string) (*Plan, error) {
	c, err := o.greedy(n.Input, want)
	if err != nil {
		return nil, err
	}
	rows := o.estimator().Estimate(n)
	if provablyEmpty(c.Props, n.Pred) {
		rows = 0
	}
	o.stats.Alternatives++
	p := o.filterPlan(n, c, rows, 0)
	if rows == 0 {
		return p, nil
	}
	// Cracked-index AV: selectivity made visible without statistics. Skipped
	// when the parent wants an order the current child provides (the crack
	// emits in piece order).
	if want == "" || !c.Props.SortedOn(want) {
		if cp := o.crackFilterPlan(n, rows); cp != nil {
			o.stats.Alternatives++
			if cp.Cost < p.Cost {
				return cp, nil
			}
		}
	}
	// Direct-on-compressed filter: output order matches the decoded filter,
	// so no want-order guard is needed.
	if ep := o.encFilterPlan(n, rows); ep != nil {
		o.stats.Alternatives++
		if ep.Cost < p.Cost {
			return ep, nil
		}
	}
	// Parallel pipe over a streaming segment: one extra probe.
	if dop := o.dop(); dop > 1 && isStreamSegment(c) {
		o.stats.Alternatives++
		if c.Cost+o.filterCost(c.Rows, dop) < p.Cost {
			return o.filterPlan(n, c, rows, dop), nil
		}
	}
	return p, nil
}

func (o *optimizer) greedySort(n *logical.Sort) (*Plan, error) {
	c, err := o.greedy(n.Input, n.Key)
	if err != nil {
		return nil, err
	}
	o.stats.Alternatives++
	if c.Props.SortedOn(n.Key) {
		return noopSortPlan(c, n.Key), nil
	}
	// One probe per sort algorithm, cheapest wins; provably-empty inputs
	// skip the sweep — any algorithm sorts nothing equally well.
	kinds := o.sortKinds()
	best := kinds[0]
	bestCost := o.sortCost(c.Rows, best, 0)
	if c.Rows > 0 {
		for _, sk := range kinds[1:] {
			o.stats.Alternatives++
			if sc := o.sortCost(c.Rows, sk, 0); sc < bestCost {
				best, bestCost = sk, sc
			}
		}
	}
	dop := 0
	if d := o.dop(); d > 1 && c.Rows > 0 {
		o.stats.Alternatives++
		if o.sortCost(c.Rows, best, d) < bestCost {
			dop = d
		}
	}
	return o.sortPlan(c, n.Key, best, false, dop), nil
}

// greedyDegrade applies the memory budget to a greedy join/group pick p: when
// p's estimated footprint exceeds the budget, its sort-based sibling replaces
// it if that fits or at least shrinks the footprint — mirroring what budgeted
// DP enumeration converges to; the runtime govern.Budget remains the
// backstop.
func (o *optimizer) greedyDegrade(p *Plan, sortBased func() *Plan) *Plan {
	budget := float64(o.mode.MemBudget)
	if budget <= 0 || p.Mem <= budget {
		return p
	}
	o.stats.Alternatives++
	if alt := sortBased(); alt.Mem <= budget || alt.Mem < p.Mem {
		return alt
	}
	return p
}

func (o *optimizer) greedyJoin(n *logical.Join) (*Plan, error) {
	lp, err := o.greedy(n.Left, n.LeftKey)
	if err != nil {
		return nil, err
	}
	rp, err := o.greedy(n.Right, n.RightKey)
	if err != nil {
		return nil, err
	}
	rows := o.estimator().Estimate(n)
	if lp.Rows == 0 || rp.Rows == 0 {
		rows = 0
	}

	// Role ordering by visible selectivity: the side the predicates (and
	// cracked ranges, via the cardinality they imply) make smaller builds;
	// the larger side streams through as the probe. Granule selection from
	// the properties already paid for: sorted inputs stream through the
	// order-based join, a dense build key admits the static-perfect-hash
	// directory, anything else hashes.
	swapped := rp.Rows < lp.Rows
	build, probe, buildKey, probeKey := joinRoles(n, lp, rp, swapped)
	kind := physical.HJ
	switch {
	case lp.Props.SortedOn(n.LeftKey) && rp.Props.SortedOn(n.RightKey):
		kind, swapped = physical.OJ, false
		build, probe, buildKey, probeKey = joinRoles(n, lp, rp, swapped)
	case build.Props.DenseOn(buildKey):
		kind = physical.SPHJ
	}
	buildSide := n.Left
	if swapped {
		buildSide = n.Right
	}
	buildDistinct := o.estimator().ColDistinct(buildSide, buildKey)
	if lreqs, rreqs := kind.Requirements(buildKey, probeKey); !build.Props.SatisfiesAll(lreqs) || !probe.Props.SatisfiesAll(rreqs) {
		// The heuristic's requirements are derived from the same properties
		// it inspects, so this is defensive: fall back to the hash join,
		// which requires nothing.
		kind = physical.HJ
	}
	// Cost probes run on bare choices; the granule tree (an EXPLAIN surface
	// the cost model never reads) is built once, for the winner only.
	opt := physical.JoinOptions{}
	o.stats.Alternatives++
	chCost := o.mode.Model.Join(physio.JoinChoice{Kind: kind}, build.Rows, probe.Rows, buildDistinct)
	// Parallel twin: one extra probe for the DOP-invariant kernels.
	if dop := o.dop(); dop > 1 && rows > 0 && kind != physical.OJ {
		popt := physical.JoinOptions{Parallel: dop}
		o.stats.Alternatives++
		if o.mode.Model.Join(physio.JoinChoice{Kind: kind, Opt: popt}, build.Rows, probe.Rows, buildDistinct) < chCost {
			opt = popt
		}
	}
	p := o.joinPlan(n, lp, rp, joinChoice(kind, opt, buildKey, probeKey), swapped, nil, rows, buildDistinct)

	// AV-backed join: a prebuilt index on the left base scan's join key
	// prepaid the build phase — one probe decides whether the probe-only
	// cost beats the greedy pick.
	if scan, idx, ch := o.indexJoin(n); idx != nil {
		o.stats.Alternatives++
		base := o.scanPlan(scan, scan.Rel, "", props.NoCompression)
		ap := o.joinPlan(n, base, rp, ch, false, idx, rows, o.estimator().ColDistinct(scan, n.LeftKey))
		if ap.Cost < p.Cost {
			return ap, nil
		}
	}
	if p.Join.Kind != physical.HJ {
		return p, nil
	}
	return o.greedyDegrade(p, func() *Plan {
		soj := joinChoice(physical.SOJ, physical.JoinOptions{Sort: sortx.Radix}, buildKey, probeKey)
		return o.joinPlan(n, lp, rp, soj, swapped, nil, rows, buildDistinct)
	}), nil
}

// cheapestGroupChoice probes each choice c satisfies once and returns the
// cheapest; ok is false when c satisfies none.
func (o *optimizer) cheapestGroupChoice(c *Plan, choices []physio.GroupChoice, groups float64) (best physio.GroupChoice, ok bool) {
	var bestCost float64
	for _, ch := range choices {
		if !c.Props.SatisfiesAll(ch.Reqs) {
			continue
		}
		o.stats.Alternatives++
		if chCost := o.mode.Model.Group(ch, c.Rows, groups); !ok || chCost < bestCost {
			best, bestCost, ok = ch, chCost, true
		}
	}
	return best, ok
}

func (o *optimizer) greedyGroup(n *logical.GroupBy) (*Plan, error) {
	c, err := o.greedy(n.Input, n.Key)
	if err != nil {
		return nil, err
	}
	groups := o.estimator().ColDistinct(n.Input, n.Key)
	rows := o.estimator().Estimate(n)
	if c.Rows == 0 {
		rows = 0
	}

	var ch physio.GroupChoice
	picked := false
	// Partial-AV hook: a pinned algorithm family restricts the candidates;
	// with the set already bounded, probe each satisfied choice once.
	if o.mode.GroupFilter != nil {
		choices := physio.GroupChoices(n.Key, o.mode.Depth, o.dop())
		if filtered := o.mode.GroupFilter(n.Key, choices); len(filtered) > 0 {
			if ch, picked = o.cheapestGroupChoice(c, filtered, groups); !picked {
				// No pinned choice is satisfiable on the raw input: enforce
				// order (sorting satisfies grouped-ness) and retry.
				o.stats.Alternatives++
				c = o.sortPlan(c, n.Key, sortx.Radix, true, 0)
				ch, picked = o.cheapestGroupChoice(c, filtered, groups)
			}
		}
	}
	if !picked {
		kind := physical.HG
		switch {
		case c.Props.GroupedOn(n.Key):
			kind = physical.OG
		case c.Props.DenseOn(n.Key):
			kind = physical.SPHG
		}
		if !c.Props.SatisfiesAll(kind.Requirements(n.Key)) {
			kind = physical.HG
		}
		// Cost probes on bare choices; the granule tree is built for the
		// winner.
		opt := physical.GroupOptions{}
		o.stats.Alternatives++
		chCost := o.mode.Model.Group(physio.GroupChoice{Kind: kind}, c.Rows, groups)
		if dop := o.dop(); dop > 1 && rows > 0 && kind != physical.OG {
			popt := physical.GroupOptions{Parallel: dop}
			o.stats.Alternatives++
			if o.mode.Model.Group(physio.GroupChoice{Kind: kind, Opt: popt}, c.Rows, groups) < chCost {
				opt = popt
			}
		}
		ch = groupChoice(kind, opt, n.Key)
	}
	p := o.groupPlan(n, c, ch, rows, groups)
	if p.Group.Kind != physical.HG && p.Group.Kind != physical.SPHG {
		return p, nil
	}
	return o.greedyDegrade(p, func() *Plan {
		sog := groupChoice(physical.SOG, physical.GroupOptions{Sort: sortx.Radix}, n.Key)
		return o.groupPlan(n, c, sog, rows, groups)
	}), nil
}
