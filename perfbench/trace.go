package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"dqo"
)

// span is one timed interval of the traced run. Bench-side spans wrap the
// calls into the engine's modules (Register, CompressTable, Prepare, Query,
// Stmt.Query, the serve client and handler); engine spans are copied from
// the dqo.QueryTrace the DB's tracer receives: the query root, its
// lifecycle phases and the operator tree under execute.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // request id shared by a request's spans; 0 = set-up
	Name   string `json:"name"`
	Kind   string `json:"kind"` // bench | query | phase | op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows,omitempty"`
	Peak   int64  `json:"peak_bytes,omitempty"`
	Attr   string `json:"attr,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// collector keeps every span of a traced run in memory and is the DB's
// dqo.Tracer. Engine traces arrive synchronously on the querying goroutine;
// each is attached to the bench span that contains it when the run ends.
type collector struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	traces []*dqo.QueryTrace
	nextID int64
}

func newCollector() *collector { return &collector{epoch: time.Now()} }

// TraceQuery implements dqo.Tracer.
func (c *collector) TraceQuery(t *dqo.QueryTrace) {
	c.mu.Lock()
	c.traces = append(c.traces, t)
	c.mu.Unlock()
}

func (c *collector) off(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// record stores a finished bench span and returns its id.
func (c *collector) record(name string, req, parent int64, start, end time.Time) int64 {
	id := c.reserve()
	c.recordAs(id, name, req, parent, start, end)
	return id
}

// reserve hands out a span id before the span ends, so children recorded
// first (the serve handler) can name their parent.
func (c *collector) reserve() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

func (c *collector) recordAs(id int64, name string, req, parent int64, start, end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Kind: "bench", Start: c.off(start), End: c.off(end)})
}

// attach converts every collected engine trace into spans, parented to the
// bench span named host that contains it. Where such spans overlap (two
// serve connections), traces are placed longest first, each in the
// latest-starting free span that contains it: the tightest fit. It returns
// the root query span id per bench span.
func (c *collector) attach(host string) map[int64]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hosts []int
	for i := range c.spans {
		if c.spans[i].Name == host {
			hosts = append(hosts, i)
		}
	}
	slices.SortStableFunc(c.traces, func(a, b *dqo.QueryTrace) int { return cmp.Compare(b.Total, a.Total) })
	owner := make(map[int64]int64)
	for _, t := range c.traces {
		start := c.off(t.Start)
		end := start + int64(t.Total)
		best := -1
		for _, i := range hosts {
			h := c.spans[i]
			if _, taken := owner[h.ID]; taken || h.Start > start || h.End < end {
				continue
			}
			if best < 0 || h.Start > c.spans[best].Start {
				best = i
			}
		}
		if best < 0 {
			continue // a query outside any traced request
		}
		h := c.spans[best]
		owner[h.ID] = c.addTrace(t, h.ID, h.Req)
	}
	c.traces = nil
	return owner
}

// addTrace copies one engine trace under the bench span host; c.mu is held.
func (c *collector) addTrace(t *dqo.QueryTrace, host, req int64) int64 {
	if t.Root == nil {
		return 0
	}
	base := c.off(t.Start)
	var add func(s *dqo.Span, parent int64, kind string) int64
	add = func(s *dqo.Span, parent int64, kind string) int64 {
		c.nextID++
		id := c.nextID
		start := base + int64(s.Start)
		c.spans = append(c.spans, span{ID: id, Parent: parent, Req: req, Name: s.Name,
			Kind: kind, Start: start, End: start + int64(s.Dur), Rows: s.Rows, Peak: s.PeakBytes,
			Attr: s.Attr("plan-cache")})
		childKind := "phase"
		if kind != "query" {
			childKind = "op"
		}
		for _, ch := range s.Children {
			add(ch, id, childKind)
		}
		return id
	}
	return add(t.Root, host, "query")
}

// tree indexes the spans by parent for self-time derivation.
type tree struct {
	byID     map[int64]*span
	children map[int64][]*span
}

func (c *collector) tree() tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := tree{byID: make(map[int64]*span, len(c.spans)), children: make(map[int64][]*span)}
	for i := range c.spans {
		s := &c.spans[i]
		t.byID[s.ID] = s
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	return t
}

// self is a span's duration minus the part its children cover. Operator
// spans carry no start offset of their own (inputs are pulled inside the
// parent), so an operator's children are subtracted by duration — the
// executor's OpStat.Self — and every other span by the union of its
// children's intervals.
func (t tree) self(s *span) time.Duration {
	kids := t.children[s.ID]
	if s.Kind == "op" {
		d := s.dur()
		for _, k := range kids {
			d -= k.dur()
		}
		return max(d, 0)
	}
	covered := int64(0)
	cur := s.Start
	for _, k := range sortedByStart(kids) {
		lo, hi := max(k.Start, cur, s.Start), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return time.Duration(s.End - s.Start - covered)
}

func sortedByStart(ss []*span) []*span {
	out := append([]*span(nil), ss...)
	for i := 1; i < len(out); i++ { // insertion sort: a handful of children
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// phase returns the named lifecycle-phase child of a query span.
func (t tree) phase(query int64, name string) *span {
	for _, k := range t.children[query] {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// family buckets an operator label into the executor kernel family whose
// self time it counts towards.
func family(label string) string {
	name := label
	if i := strings.IndexAny(name, "( "); i >= 0 {
		name = name[:i]
	}
	switch {
	case strings.HasPrefix(name, "Compressed"):
		return "compressed"
	case strings.HasSuffix(name, "J") || strings.Contains(name, "Join"):
		return "join"
	case strings.HasSuffix(name, "G") || strings.Contains(name, "Group") || strings.Contains(name, "Agg"):
		return "group"
	case strings.HasPrefix(name, "Sort"):
		return "sort"
	case strings.HasPrefix(name, "Filter"):
		return "filter"
	case strings.HasPrefix(name, "Scan"):
		return "scan"
	}
	return "other"
}

var families = []string{"scan", "filter", "join", "group", "sort", "compressed"}

// write dumps every span as JSON lines.
func (c *collector) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	c.mu.Lock()
	for i := range c.spans {
		if err := enc.Encode(&c.spans[i]); err != nil {
			c.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	c.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
