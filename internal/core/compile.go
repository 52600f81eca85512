package core

import (
	"context"
	"fmt"

	"dqo/internal/exec"
	"dqo/internal/govern"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/storage"
)

// This file is the plan → operator-tree compiler: it lowers an optimised
// Plan onto the unified morsel-driven execution layer (internal/exec).
// Streaming operators (scan, filter, project) become morsel-at-a-time
// operators; sorts, joins, and groupings keep their whole-relation kernel
// cores but run behind the same Open/Next/Close interface, draining their
// inputs morsel by morsel (join inputs concurrently) and emitting
// per-operator execution statistics.

// ExecOptions configures a morsel-executor run.
type ExecOptions struct {
	// MorselSize is the batch row count; <= 0 selects
	// exec.DefaultMorselSize.
	MorselSize int
	// Workers bounds the query's worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Mem is the query's memory budget; nil = unlimited. Materialising
	// operators and kernels reserve against it and fail the query with
	// qerr.ErrMemoryBudgetExceeded instead of allocating past the limit.
	Mem *govern.Budget
	// SpillDir, when non-empty, arms spill-to-disk execution: spill-lowered
	// breakers write budget-accounted run files under a temp directory
	// created beneath it (removed when the query ends, however it ends).
	// Empty leaves spilling disarmed — a plan with spill nodes then fails
	// at the first write attempt.
	SpillDir string
	// SpillLimit caps the query's live spill bytes on disk; <= 0 is
	// unlimited. Past it, writes fail with qerr.ErrSpillLimitExceeded.
	SpillLimit int64
	// SpillQuota, when positive, overrides the budget-derived run quota —
	// the bytes a spilling operator buffers before flushing a run. Tests
	// and benchmarks use a tiny quota to force the disk path without
	// starving the memory budget.
	SpillQuota int64
}

// Compile lowers an optimised plan to its operator tree. The tree is
// single-use: compile a fresh one per execution.
//
// Streaming segments the optimiser marked parallel (Plan.DOP > 1 on a
// filter/project chain over a scan) lower to an exec.Pipe that fans morsels
// across the worker pool; everything else lowers to the serial operators, so
// DOP = 1 plans execute exactly as before the parallel dimension existed.
//
// A non-nil rc arms mid-query re-planning: every pipeline-breaker kernel is
// wrapped with a re-planning check (see ReoptConfig), index joins excepted —
// their build side was prepaid offline. A nil rc compiles the plan as
// optimised.
func Compile(p *Plan, rc *ReoptConfig) (exec.Operator, error) {
	switch p.Op {
	case OpScan:
		if p.Enc != props.NoCompression {
			return exec.NewCompressedScan(p.Label(), p.Rel), nil
		}
		return exec.NewScan(p.Label(), p.Rel), nil
	case OpFilter:
		if p.DOP > 1 {
			if op, ok := compilePipe(p); ok {
				return op, nil
			}
		}
		if p.Enc != props.NoCompression {
			// The direct-on-compressed kernel answers the filter straight off
			// the encoded segments, so — like the cracked index — it subsumes
			// the scan below it.
			child := p.Children[0]
			if child.Op != OpScan {
				return nil, fmt.Errorf("core: compressed filter over %v, want Scan", child.Op)
			}
			return exec.NewCompressedFilter(p.Label(), child.Rel, p.EncCol, p.EncLo, p.EncHi), nil
		}
		if p.Crack != nil {
			// The cracked index answers the filter with base-table row
			// positions, so it subsumes the scan below it.
			child := p.Children[0]
			if child.Op != OpScan {
				return nil, fmt.Errorf("core: cracked filter over %v, want Scan", child.Op)
			}
			crack, lo, hi := p.Crack, p.CrackLo, p.CrackHi
			return exec.NewIndexScan(p.Label(), child.Rel, func() []int32 {
				return crack.Range64(lo, hi)
			}), nil
		}
		child, err := Compile(p.Children[0], rc)
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(p.Label(), child, p.Pred), nil
	case OpProject:
		if p.DOP > 1 {
			if op, ok := compilePipe(p); ok {
				return op, nil
			}
		}
		child, err := Compile(p.Children[0], rc)
		if err != nil {
			return nil, err
		}
		return exec.NewProject(p.Label(), child, p.Cols), nil
	case OpSort, OpGroup, OpJoin:
		kids := make([]exec.Operator, len(p.Children))
		for i, c := range p.Children {
			op, err := Compile(c, rc)
			if err != nil {
				return nil, err
			}
			kids[i] = op
		}
		return compileBreaker(p, kids, rc), nil
	default:
		return nil, fmt.Errorf("core: cannot compile operator %v", p.Op)
	}
}

// compileBreaker lowers a sort, group or join node over its compiled
// inputs: to its disk-backed spill twin when the optimiser chose one
// (external merge sort, partition-and-recurse hash aggregation, grace hash
// join — each byte-identical to the serial in-memory kernel, and never
// re-planned: the spill twin is already the last resort under the budget),
// otherwise to the node's kernel behind the breaker shell.
func compileBreaker(p *Plan, kids []exec.Operator, rc *ReoptConfig) exec.Operator {
	dop := p.DOP
	switch p.Op {
	case OpSort:
		if p.Spill {
			return exec.NewSpillSort(p.Label(), kids[0], p.SortKey, p.SortKind)
		}
	case OpGroup:
		if p.Spill {
			return exec.NewSpillGroup(p.Label(), kids[0], p.GroupKey, p.Aggs, p.Group.Opt, p.KeyDom)
		}
		dop = p.Group.Opt.Parallel
	case OpJoin:
		if p.Spill {
			return exec.NewSpillJoin(p.Label(), kids[0], kids[1], p.LeftKey, p.RightKey,
				p.Join.Opt, p.Swapped, p.KeyDom)
		}
		dop = p.Join.Opt.Parallel
	}
	k := kernel(p)
	var b *exec.Breaker
	if rc != nil && p.Index == nil {
		k = rc.replan(p, k, func() { b.NoteReplan() })
	}
	b = exec.NewBreaker(p.Label(), kids, k)
	b.SetDOP(dop)
	return b
}

// kernel returns the whole-relation kernel of a sort, group or join node
// (serial or parallel, either build/probe role, or the AV index join) over
// its materialised inputs in child order. It threads the query's governance
// handle (cancellation + memory budget) and clamps the planned DOP to the
// pool. Compile runs it behind an exec.Breaker; execReplanned calls it
// directly on a re-planned suffix.
func kernel(p *Plan) exec.Kernel {
	switch p.Op {
	case OpSort:
		return func(ec *exec.ExecContext, in []*storage.Relation) (*storage.Relation, error) {
			return physical.SortRelParCtl(in[0], p.SortKey, p.SortKind, ec.EffectiveDOP(p.DOP), ec.Ctl())
		}
	case OpGroup:
		return func(ec *exec.ExecContext, in []*storage.Relation) (*storage.Relation, error) {
			o := p.Group.Opt
			if o.Parallel > 1 {
				o.Parallel = ec.EffectiveDOP(o.Parallel)
			}
			o.Ctl = ec.Ctl()
			return physical.GroupByRelDom(in[0], p.GroupKey, p.Aggs, p.Group.Kind, o, p.KeyDom)
		}
	case OpJoin:
		if p.Index != nil {
			return func(_ *exec.ExecContext, in []*storage.Relation) (*storage.Relation, error) {
				return executeIndexJoin(p, in[0], in[1])
			}
		}
		return func(ec *exec.ExecContext, in []*storage.Relation) (*storage.Relation, error) {
			o := p.Join.Opt
			if o.Parallel > 1 {
				o.Parallel = ec.EffectiveDOP(o.Parallel)
			}
			o.Ctl = ec.Ctl()
			if p.Swapped {
				return physical.JoinRelDomSwapped(in[0], in[1], p.LeftKey, p.RightKey, p.Join.Kind, o, p.KeyDom)
			}
			return physical.JoinRelDom(in[0], in[1], p.LeftKey, p.RightKey, p.Join.Kind, o, p.KeyDom)
		}
	}
	return func(*exec.ExecContext, []*storage.Relation) (*storage.Relation, error) {
		return nil, fmt.Errorf("core: %v has no whole-relation kernel", p.Op)
	}
}

// compilePipe lowers a parallel streaming segment — a filter/project chain
// the optimiser marked with DOP > 1, bottoming out at a plain scan — onto
// the morsel-parallel pipe driver. Stages run per morsel on the worker pool
// and the pipe re-emits batches in input order, so the result is identical
// to the serial chain. Returns false if the chain has an unexpected shape
// (e.g. a cracked filter); the caller then falls back to serial lowering.
func compilePipe(p *Plan) (exec.Operator, bool) {
	var chain []*Plan
	n := p
	for (n.Op == OpFilter && n.Crack == nil && n.Enc == props.NoCompression) || n.Op == OpProject {
		chain = append(chain, n)
		n = n.Children[0]
	}
	if n.Op != OpScan || len(chain) == 0 {
		return nil, false
	}
	pipe := exec.NewPipe(n.Label(), n.Rel, p.DOP)
	for i := len(chain) - 1; i >= 0; i-- {
		st := chain[i]
		switch st.Op {
		case OpFilter:
			pred := st.Pred
			pipe.AddStage(st.Label(), func(in *storage.Relation) (*storage.Relation, error) {
				return physical.FilterRel(in, pred)
			})
		case OpProject:
			cols := st.Cols
			pipe.AddStage(st.Label(), func(in *storage.Relation) (*storage.Relation, error) {
				return physical.ProjectRel(in, cols...)
			})
		}
	}
	return pipe, true
}

// ExecuteContext compiles p and runs it through the morsel executor under
// ctx, returning the result relation and the per-operator execution
// profile. A cancelled context aborts the run at the next morsel boundary
// with ctx's error. On failure the partial profile (whatever the operators
// counted before the abort) is returned alongside the typed error, so
// callers can report how far a failed query got.
func ExecuteContext(ctx context.Context, p *Plan, opts ExecOptions) (*storage.Relation, exec.Profile, error) {
	root, err := Compile(p, nil)
	if err != nil {
		return nil, nil, err
	}
	ec := exec.NewExecContextBudget(ctx, opts.MorselSize, opts.Workers, opts.Mem)
	if opts.SpillDir != "" {
		ec.SetSpill(opts.SpillDir, opts.SpillLimit)
		if opts.SpillQuota > 0 {
			ec.SetSpillQuota(opts.SpillQuota)
		}
	}
	rel, err := exec.Run(ec, root)
	prof := exec.CollectProfile(root)
	if err != nil {
		return nil, prof, err
	}
	return rel, prof, nil
}

// Execute runs the plan through the morsel executor with default options
// and returns its result relation.
func Execute(p *Plan) (*storage.Relation, error) {
	rel, _, err := ExecuteContext(context.Background(), p, ExecOptions{})
	return rel, err
}
