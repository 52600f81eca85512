package av

import (
	"sync"

	"dqo/internal/core"
	"dqo/internal/logical"
)

// PlanCache is a plan-level Algorithmic View: a fully optimised plan reused
// across queries — the prepared-statement analogy of Section 3 ("how much
// time do I want to spend on DQO offline vs at query time?"). Keys are
// caller-chosen; the caller is responsible for invalidating entries when
// base data properties change.
//
// Two lookup disciplines share the store. Optimize keys on exact statements
// and returns cached results verbatim. OptimizeTemplate keys on normalized
// query fingerprints (sql.Fingerprint: literals stripped to parameter
// slots): a hit reuses the cached plan as a parameterised template, splicing
// the new statement's literals into a structural clone via core.Rebind —
// repeated query shapes skip enumeration entirely and re-plan in O(rebind).
//
// A cold key is planned once, not once per racing caller: callers that miss
// while another caller's optimiser run for the same key is in flight wait
// for it and then use its plan.
type PlanCache struct {
	mu       sync.Mutex
	entries  map[string]*core.Result
	inflight map[string]chan struct{} // closed when the key's optimiser run ends
	hits     int
	misses   int
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[string]*core.Result), inflight: make(map[string]chan struct{})}
}

// Optimize returns the cached result for key, or optimises n under mode,
// caches, and returns it. The second result reports a cache hit.
func (pc *PlanCache) Optimize(key string, n logical.Node, mode core.Mode) (*core.Result, bool, error) {
	pc.mu.Lock()
	if res, ok := pc.await(key); ok {
		pc.hits++
		pc.mu.Unlock()
		return res, true, nil
	}
	return pc.plan(key, n, mode)
}

// OptimizeTemplate returns the plan for n, treating the entry under key as a
// parameterised template: on a hit the cached plan structure is reused and
// only the literal parameters are rebound (zero enumeration — the returned
// Stats.Alternatives is 0). A template the new statement cannot rebind into
// (the fingerprint matched but the plan-relevant literal shape changed, e.g.
// a literal outside the crackable key range) is replanned and replaced,
// counted as a miss.
func (pc *PlanCache) OptimizeTemplate(key string, n logical.Node, mode core.Mode) (*core.Result, bool, error) {
	pc.mu.Lock()
	cached, ok := pc.await(key)
	pc.mu.Unlock()
	if ok {
		if res, err := core.Rebind(cached, n); err == nil {
			pc.mu.Lock()
			pc.hits++
			pc.mu.Unlock()
			return res, true, nil
		}
	}
	pc.mu.Lock()
	return pc.plan(key, n, mode)
}

// await returns the entry under key, first waiting out any optimiser run in
// flight for it. The caller holds pc.mu, which is held again on return.
func (pc *PlanCache) await(key string) (*core.Result, bool) {
	for {
		done, busy := pc.inflight[key]
		if !busy {
			res, ok := pc.entries[key]
			return res, ok
		}
		pc.mu.Unlock()
		<-done
		pc.mu.Lock()
	}
}

// plan counts a miss and optimises n as the key's run in flight, caching a
// successful result before waking the callers waiting for it. The caller
// holds pc.mu; plan releases it.
func (pc *PlanCache) plan(key string, n logical.Node, mode core.Mode) (*core.Result, bool, error) {
	pc.misses++
	done := make(chan struct{})
	pc.inflight[key] = done
	pc.mu.Unlock()
	defer func() {
		pc.mu.Lock()
		if pc.inflight[key] == done {
			delete(pc.inflight, key)
		}
		pc.mu.Unlock()
		close(done)
	}()
	res, err := core.Optimize(n, mode)
	if err != nil {
		return nil, false, err
	}
	pc.mu.Lock()
	pc.entries[key] = res
	pc.mu.Unlock()
	return res, false, nil
}

// Invalidate drops the entry for key (if any).
func (pc *PlanCache) Invalidate(key string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	delete(pc.entries, key)
}

// Clear drops every entry.
func (pc *PlanCache) Clear() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries = make(map[string]*core.Result)
}

// Stats returns hit and miss counters.
func (pc *PlanCache) Stats() (hits, misses int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}

// ResetStats zeroes the hit and miss counters (entries are kept). A
// disabled cache resets its counters so the exported hit ratio reflects
// only periods the cache was live.
func (pc *PlanCache) ResetStats() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.hits, pc.misses = 0, 0
}
