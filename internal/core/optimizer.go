package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dqo/internal/feedback"
	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// Stats reports what the optimiser did.
type Stats struct {
	Alternatives int           // physical alternatives costed
	Kept         int           // Pareto entries surviving per-property pruning
	Duration     time.Duration // wall-clock optimisation time
}

// Result is the outcome of an optimisation run.
type Result struct {
	Best  *Plan
	Mode  Mode
	Stats Stats
}

// Physicality returns the mean physicality (share of molecule-level
// granules, see physio.Granule.Physicality) over the chosen plan's join and
// grouping implementations — how deeply the winning plan was unnested.
func (r *Result) Physicality() float64 {
	total, n := 0.0, 0
	var rec func(p *Plan)
	rec = func(p *Plan) {
		switch p.Op {
		case OpJoin:
			if p.Join.Tree != nil {
				total += p.Join.Tree.Physicality()
				n++
			}
		case OpGroup:
			if p.Group.Tree != nil {
				total += p.Group.Tree.Physicality()
				n++
			}
		}
		for _, c := range p.Children {
			rec(c)
		}
	}
	rec(r.Best)
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// Optimize compiles a logical plan into the cheapest physical plan under the
// mode's cost model, using property-tracking dynamic programming: for every
// subtree it keeps the cheapest plan per distinct property vector
// (generalised interesting orders — exactly the mechanism the paper extends
// from sortedness to density and friends).
func Optimize(n logical.Node, mode Mode) (*Result, error) {
	if err := logical.Validate(n); err != nil {
		return nil, err
	}
	if mode.Model == nil {
		return nil, fmt.Errorf("core: mode %q has no cost model", mode.Name)
	}
	// Close the estimate→measure loop: resolve the cost model through the
	// mode's feedback store. Tune is idempotent and an empty store is
	// neutral, so feedback-free planning is untouched.
	if mode.Feedback != nil {
		mode.Model = feedback.Tune(mode.Model, mode.Feedback)
	}
	start := time.Now()
	o := &optimizer{mode: mode}
	if mode.Greedy {
		best, err := o.greedy(n, "")
		if err != nil {
			return nil, err
		}
		o.stats.Duration = time.Since(start)
		o.stats.Kept = 1
		return &Result{Best: best, Mode: mode, Stats: o.stats}, nil
	}
	plans, err := o.optimize(n)
	if err != nil {
		return nil, err
	}
	best := cheapest(plans)
	if best == nil {
		return nil, fmt.Errorf("core: no plan found for %s", n)
	}
	o.stats.Duration = time.Since(start)
	o.stats.Kept = len(plans)
	return &Result{Best: best, Mode: mode, Stats: o.stats}, nil
}

type optimizer struct {
	mode  Mode
	stats Stats
	// scanProps memoises per-relation scan properties for the run: every
	// tier revisits base relations (scan variants, AV fallbacks, the DP
	// tiers' per-granule base scans), and each visit would otherwise walk
	// every column's statistics again.
	scanProps map[*storage.Relation]props.Set
	// est shares one memoised cardinality estimator across the whole run —
	// the greedy pass asks about every node it visits, and the DP tiers
	// revisit subtree cardinalities per enumeration site. It is also where
	// measured-cardinality feedback enters: with a feedback store on the
	// mode, previously-seen filter/join/group shapes estimate at their
	// measured cardinality.
	est *logical.Estimator
}

// estimator returns the run-shared memoised estimator, creating it on first
// use (hint-aware when the mode carries a feedback store).
func (o *optimizer) estimator() *logical.Estimator {
	if o.est == nil {
		if o.mode.Feedback != nil {
			o.est = logical.NewEstimatorHints(o.mode.Feedback)
		} else {
			o.est = logical.NewEstimator()
		}
	}
	return o.est
}

// cheapest returns the lowest-cost plan (ties: first wins, which prefers
// the earlier-enumerated, less physical alternative — matching the paper's
// outcome that order-based plans win the sorted/sorted cell).
func cheapest(plans []*Plan) *Plan {
	var best *Plan
	for _, p := range plans {
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// keepPareto retains, per property fingerprint, the cheapest plan; it also
// drops any plan strictly worse than another whose properties subsume it
// would require a lattice — per-fingerprint pruning is the classical
// compromise and keeps enumeration exact for the requirements we check.
func (o *optimizer) keepPareto(plans []*Plan) []*Plan {
	bestBy := make(map[string]*Plan, len(plans))
	order := make([]string, 0, len(plans))
	for _, p := range plans {
		fp := p.Props.Fingerprint()
		if cur, ok := bestBy[fp]; !ok {
			bestBy[fp] = p
			order = append(order, fp)
		} else if p.Cost < cur.Cost {
			bestBy[fp] = p
		}
	}
	out := make([]*Plan, 0, len(order))
	for _, fp := range order {
		out = append(out, bestBy[fp])
	}
	return o.beamCap(out)
}

// beamCap truncates a site's DP table to the mode's beam width: the Beam
// cheapest property-distinct plans survive, ties resolved in enumeration
// order (stable sort), so the cap is deterministic. Beam <= 0 returns the
// table untouched — beam-free enumeration stays byte-identical.
func (o *optimizer) beamCap(plans []*Plan) []*Plan {
	if o.mode.Beam <= 0 || len(plans) <= o.mode.Beam {
		return plans
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Cost < plans[j].Cost })
	return plans[:o.mode.Beam]
}

// pruneMem drops alternatives whose estimated peak memory exceeds the
// mode's budget; if every alternative exceeds it, a spill-enabled mode
// degrades to the disk-backed twin of the cheapest spill-compatible
// alternative, and otherwise the single smallest survives, so optimisation
// still returns a plan and the runtime budget enforces the limit.
// MemBudget <= 0 returns plans untouched, keeping budget-free enumeration
// byte-identical; so does any site with at least one alternative under the
// budget, keeping fitting plans byte-identical with Spill on or off.
func (o *optimizer) pruneMem(plans []*Plan) []*Plan {
	if o.mode.MemBudget <= 0 || len(plans) == 0 {
		return plans
	}
	budget := float64(o.mode.MemBudget)
	out := make([]*Plan, 0, len(plans))
	minP := plans[0]
	for _, p := range plans {
		if p.Mem < minP.Mem {
			minP = p
		}
		if p.Mem <= budget {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		if o.mode.Spill {
			if twin := o.spillTwin(plans, budget); twin != nil {
				return []*Plan{twin}
			}
		}
		return []*Plan{minP}
	}
	return out
}

// spillCompatible reports whether a breaker alternative has a disk-backed
// twin: the serial kernels whose emission order partitioned or merged
// execution reproduces exactly (see the internal/exec spill operators).
// Sorts spill at any sort kind (stable runs merge into the stable full
// sort); joins only as the serial non-AV hash join (grace partitioning);
// groupings only as the serial chained-scheme hash aggregation (first-seen
// iteration order is partition-recomposable).
func spillCompatible(p *Plan) bool {
	switch p.Op {
	case OpSort:
		return p.DOP <= 1
	case OpJoin:
		return p.Join.Kind == physical.HJ && p.AV == "" && p.Index == nil &&
			p.Join.Opt.Parallel <= 1
	case OpGroup:
		return p.Group.Kind == physical.HG && p.Group.Opt.Parallel <= 1 &&
			p.Group.Opt.Scheme == hashtable.Chained
	default:
		return false
	}
}

// spillTwin builds the disk-backed twin of the cheapest spill-compatible
// alternative at a site where nothing fits the memory budget. Bases whose
// inputs themselves fit the budget are preferred — spilling the breaker
// cannot shrink a child's residency. The twin produces the identical output
// (same property vector), is priced by Model.Spill over the input rows with
// a nominal two disk passes (partition write + read; deeper recursion is
// the skew exception, not the rule), and claims the budget as its peak
// residency — the runtime kernel bounds itself to the spill grant.
func (o *optimizer) spillTwin(plans []*Plan, budget float64) *Plan {
	var base *Plan
	baseFits := false
	for _, p := range plans {
		if !spillCompatible(p) {
			continue
		}
		fits := true
		for _, c := range p.Children {
			if c.Mem > budget {
				fits = false
				break
			}
		}
		switch {
		case base == nil, fits && !baseFits, fits == baseFits && p.Cost < base.Cost:
			base, baseFits = p, fits
		}
	}
	if base == nil {
		return nil
	}
	o.stats.Alternatives++
	var inRows float64
	for _, c := range base.Children {
		inRows += c.Rows
	}
	twin := *base
	twin.Spill = true
	twin.DOP = 0
	twin.Cost = o.mode.Model.Spill(base.Cost, inRows, 2)
	twin.Mem = math.Min(base.Mem, budget)
	return &twin
}

// MarkSpillTwins rewrites every spill-compatible breaker of an optimised
// plan into its disk-backed twin in place, returning how many nodes were
// marked. Differential tests and benchmarks use it to force the spill
// kernels onto the disk path for plans that would never be memory-starved,
// so the byte-identity proof covers the whole corpus, not just the rare
// over-budget site.
func MarkSpillTwins(p *Plan) int {
	n := 0
	if spillCompatible(p) {
		p.Spill = true
		p.DOP = 0
		n++
	}
	for _, c := range p.Children {
		n += MarkSpillTwins(c)
	}
	return n
}

// scanPropsOf returns the restricted property set of one stored relation,
// memoised per optimisation run. Callers share the returned set and must
// not mutate it.
func (o *optimizer) scanPropsOf(rel *storage.Relation) props.Set {
	if ps, ok := o.scanProps[rel]; ok {
		return ps
	}
	ps := o.restrict(logical.ScanProps(rel))
	if o.scanProps == nil {
		o.scanProps = make(map[*storage.Relation]props.Set, 8)
	}
	o.scanProps[rel] = ps
	return ps
}

// restrict hides the properties the mode does not track — the SQO/DQO
// delta. SQO keeps sortedness (and what follows from it) but is blind to
// density: its property vector simply never contains a dense domain, so
// SPH-based alternatives are unreachable.
func (o *optimizer) restrict(s props.Set) props.Set {
	if o.mode.TrackDensity {
		return s
	}
	n := s.Clone()
	for c, d := range n.Cols {
		d.Dense = false
		n.Cols[c] = d
	}
	return n
}

func (o *optimizer) sortKinds() []sortx.Kind {
	if o.mode.Depth == physio.Deep {
		return sortx.Kinds()
	}
	return []sortx.Kind{sortx.Radix}
}

// dop returns the degree of parallelism offered to deep enumeration; shallow
// modes and modes with DOP <= 1 enumerate serial plans only.
func (o *optimizer) dop() int {
	if o.mode.Depth != physio.Deep || o.mode.DOP <= 1 {
		return 1
	}
	return o.mode.DOP
}

// isStreamSegment reports whether p is a scan→filter→project chain a
// parallel pipe can be fanned over: every stage is morsel-decomposable and
// the source is a plain (or AV-variant) table scan. Cracked and
// direct-on-compressed filters are excluded — both replace the scan with a
// whole-table position-list probe.
func isStreamSegment(p *Plan) bool {
	for {
		switch {
		case p.Op == OpScan:
			return true
		case p.Op == OpFilter && p.Crack == nil && p.Enc == props.NoCompression,
			p.Op == OpProject:
			p = p.Children[0]
		default:
			return false
		}
	}
}

// offer appends a costed alternative to a site's candidate list, counting
// it in the run's statistics.
func (o *optimizer) offer(out []*Plan, p *Plan) []*Plan {
	o.stats.Alternatives++
	return append(out, p)
}

func (o *optimizer) optimize(n logical.Node) ([]*Plan, error) {
	switch n := n.(type) {
	case *logical.Scan:
		out := o.offer(nil, o.scanPlan(n, n.Rel, "", props.NoCompression))
		if o.mode.Scans != nil {
			// Algorithmic-View access paths: materialised variants of the
			// table (e.g. sorted projections) start the plan from different
			// physical properties at plain scan cost.
			for _, v := range o.mode.Scans.ScanVariants(n.Table) {
				out = o.offer(out, o.scanPlan(n, v.Rel, v.Label, props.NoCompression))
			}
		}
		// Compressed-scan twin: identical output and properties, so it
		// competes purely on cost — models blind to storage format (Paper)
		// price it as an exact tie, which the first-enumerated plain scan
		// wins. Deep-only: shallow enumeration stays at the classical
		// operator boundary.
		if o.mode.Depth == physio.Deep {
			if enc := relCompression(n.Rel); enc != props.NoCompression {
				out = o.offer(out, o.scanPlan(n, n.Rel, "", enc))
			}
		}
		return o.keepPareto(out), nil

	case *logical.Filter:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		rows := o.estimator().Estimate(n)
		var out []*Plan
		for _, c := range children {
			out = o.offer(out, o.filterPlan(n, c, rows, 0))
			if dop := o.dop(); dop > 1 && isStreamSegment(c) {
				out = o.offer(out, o.filterPlan(n, c, rows, dop))
			}
		}
		if cp := o.crackFilterPlan(n, rows); cp != nil {
			out = o.offer(out, cp)
		}
		if o.mode.Depth == physio.Deep {
			if ep := o.encFilterPlan(n, rows); ep != nil {
				out = o.offer(out, ep)
			}
		}
		return o.keepPareto(out), nil

	case *logical.Project:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		var out []*Plan
		for _, c := range children {
			out = o.offer(out, projectPlan(n, c))
		}
		return o.keepPareto(out), nil

	case *logical.Sort:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		var out []*Plan
		for _, c := range children {
			if c.Props.SortedOn(n.Key) {
				out = o.offer(out, noopSortPlan(c, n.Key))
				continue
			}
			for _, sk := range o.sortKinds() {
				out = o.sortVariants(out, c, n.Key, sk, false)
			}
		}
		return o.keepPareto(o.pruneMem(out)), nil

	case *logical.Join:
		return o.optimizeJoin(n)

	case *logical.GroupBy:
		return o.optimizeGroup(n)

	default:
		return nil, fmt.Errorf("core: cannot optimise %T", n)
	}
}

// joinOutProps derives join output properties, hiding probe-order
// preservation from optimisers that do not look below the operator boundary
// (classical assumption: hash joins destroy order; only the order-based
// family preserves it).
func (o *optimizer) joinOutProps(ch physio.JoinChoice, build, probe props.Set, buildKey, probeKey string) props.Set {
	out := ch.Kind.OutputProps(build, probe, buildKey, probeKey)
	if !o.mode.TrackProbeOrder {
		switch ch.Kind {
		case physical.HJ, physical.SPHJ, physical.BSJ:
			out = out.DropOrder()
		}
	}
	return out
}

// sortVariants offers the serial sort of child by key plus, at deep DOP > 1,
// its parallel twin (per-worker sorted runs + k-way merge).
func (o *optimizer) sortVariants(out []*Plan, child *Plan, key string, sk sortx.Kind, enforcer bool) []*Plan {
	out = o.offer(out, o.sortPlan(child, key, sk, enforcer, 0))
	if dop := o.dop(); dop > 1 {
		out = o.offer(out, o.sortPlan(child, key, sk, enforcer, dop))
	}
	return out
}

// withEnforcers returns the candidate input plans for an operator that
// might want its input sorted by key: the originals plus, for each plan not
// already sorted on key, sort-enforced variants.
func (o *optimizer) withEnforcers(plans []*Plan, key string) []*Plan {
	out := append([]*Plan(nil), plans...)
	for _, p := range plans {
		if p.Props.SortedOn(key) {
			continue
		}
		for _, sk := range o.sortKinds() {
			out = o.sortVariants(out, p, key, sk, true)
		}
	}
	return o.keepPareto(out)
}

func (o *optimizer) optimizeJoin(n *logical.Join) ([]*Plan, error) {
	lefts, err := o.optimize(n.Left)
	if err != nil {
		return nil, err
	}
	rights, err := o.optimize(n.Right)
	if err != nil {
		return nil, err
	}
	lefts = o.withEnforcers(lefts, n.LeftKey)
	rights = o.withEnforcers(rights, n.RightKey)

	rows := o.estimator().Estimate(n)
	distinct := [2]float64{
		o.estimator().ColDistinct(n.Left, n.LeftKey),
		o.estimator().ColDistinct(n.Right, n.RightKey),
	}
	// Join commutativity: the same algorithm families with build and probe
	// roles exchanged (swapped), the right input building.
	choices := [2][]physio.JoinChoice{
		physio.JoinChoices(n.LeftKey, n.RightKey, o.mode.Depth, o.dop()),
		physio.JoinChoices(n.RightKey, n.LeftKey, o.mode.Depth, o.dop()),
	}

	var out []*Plan
	for _, lp := range lefts {
		for _, rp := range rights {
			for role, swapped := range [2]bool{false, true} {
				build, probe, _, _ := joinRoles(n, lp, rp, swapped)
				for _, ch := range choices[role] {
					if build.Props.SatisfiesAll(ch.LeftReqs) && probe.Props.SatisfiesAll(ch.RightReqs) {
						out = o.offer(out, o.joinPlan(n, lp, rp, ch, swapped, nil, rows, distinct[role]))
					}
				}
			}
		}
	}
	// AV-backed joins over the left base scan's prebuilt index.
	if scan, idx, ch := o.indexJoin(n); idx != nil {
		base := o.scanPlan(scan, scan.Rel, "", props.NoCompression)
		for _, rp := range rights {
			out = o.offer(out, o.joinPlan(n, base, rp, ch, false, idx, rows, distinct[0]))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no applicable join implementation for %s", n)
	}
	return o.keepPareto(o.pruneMem(out)), nil
}

func (o *optimizer) optimizeGroup(n *logical.GroupBy) ([]*Plan, error) {
	children, err := o.optimize(n.Input)
	if err != nil {
		return nil, err
	}
	children = o.withEnforcers(children, n.Key)

	groups := o.estimator().ColDistinct(n.Input, n.Key)
	rows := o.estimator().Estimate(n)
	choices := physio.GroupChoices(n.Key, o.mode.Depth, o.dop())
	if o.mode.GroupFilter != nil {
		if filtered := o.mode.GroupFilter(n.Key, choices); len(filtered) > 0 {
			choices = filtered
		}
	}

	var out []*Plan
	for _, c := range children {
		for _, ch := range choices {
			if c.Props.SatisfiesAll(ch.Reqs) {
				out = o.offer(out, o.groupPlan(n, c, ch, rows, groups))
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no applicable grouping implementation for %s", n)
	}
	return o.keepPareto(o.pruneMem(out)), nil
}

// CompareModes optimises the same logical plan under two modes and returns
// the improvement factor baseline/over — the quantity Figure 5 reports
// ("improvement factors for the estimated plan costs of DQO over SQO").
// Both costs are measured under the baseline's cost model scale (the two
// modes must share a model for the factor to be meaningful).
func CompareModes(n logical.Node, baseline, improved Mode) (base, better *Result, factor float64, err error) {
	base, err = Optimize(n, baseline)
	if err != nil {
		return nil, nil, 0, err
	}
	better, err = Optimize(n, improved)
	if err != nil {
		return nil, nil, 0, err
	}
	if better.Best.Cost == 0 {
		return base, better, 1, nil
	}
	return base, better, base.Best.Cost / better.Best.Cost, nil
}
