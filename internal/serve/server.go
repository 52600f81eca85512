package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"dqo"
	"dqo/internal/govern"
	"dqo/internal/obs"
)

// Config shapes a Server. The zero value of every field selects a sensible
// default; only DB is required.
type Config struct {
	DB *dqo.DB

	// DefaultMode optimises queries whose request omits a mode
	// (default ModeDQOCalibrated — the engine's best tier).
	DefaultMode dqo.Mode
	// ModeSet marks DefaultMode as explicitly chosen, so ModeSQO (the zero
	// Mode) can be configured.
	ModeSet bool

	// MaxActive bounds concurrently executing queries (0 = GOMAXPROCS);
	// MaxQueue bounds how many more wait for a slot (0 = 4x MaxActive,
	// negative = no queue at all). Beyond both, requests shed immediately
	// with HTTP 429 — the serving layer degrades by queueing first and
	// shedding second, never by accepting unbounded work.
	MaxActive int
	MaxQueue  int

	// TenantActive/TenantQueue shape the per-tenant gates layered inside
	// the global one (0 = no per-tenant gating). A tenant saturating its
	// own slots queues and sheds without starving other tenants.
	TenantActive int
	TenantQueue  int

	// SessionTTL expires idle sessions (default 5m); MaxSessions bounds the
	// session table (default 1024); MaxStmts bounds prepared statements per
	// session (default 64).
	SessionTTL  time.Duration
	MaxSessions int
	MaxStmts    int

	// MemPerQuery caps each query's working memory in bytes (0 = unlimited),
	// applied as WithMemoryLimit on every execution.
	MemPerQuery int64

	// DefaultTimeout bounds requests that set no timeout_ms (default 30s);
	// MaxTimeout clamps requested timeouts (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxRows truncates result streaming after this many rows (0 =
	// unlimited). The query still runs to completion; only the response body
	// is bounded.
	MaxRows int
}

func (c Config) withDefaults() Config {
	if !c.ModeSet {
		c.DefaultMode = dqo.ModeDQOCalibrated
	}
	if c.MaxActive <= 0 {
		c.MaxActive = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 4 * c.MaxActive
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// Server is the HTTP serving layer over one DB. Create with New, mount via
// Handler, and call Drain before shutting the listener down so /healthz
// flips to 503 while in-flight queries finish.
type Server struct {
	cfg      Config
	db       *dqo.DB
	gate     *govern.Gate
	tenants  *govern.TenantGates
	sessions *sessionTable
	metrics  *obs.HTTPCollector
	mux      *http.ServeMux
	draining atomic.Bool
}

// New builds a Server over cfg.DB. It panics on a nil DB — a server without
// an engine is a programming error, not a runtime condition.
func New(cfg Config) *Server {
	if cfg.DB == nil {
		panic("serve: Config.DB is nil")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		gate:     govern.NewGate(cfg.MaxActive, cfg.MaxQueue),
		tenants:  govern.NewTenantGates(cfg.TenantActive, cfg.TenantQueue),
		sessions: newSessionTable(cfg.SessionTTL, cfg.MaxSessions, cfg.MaxStmts),
		metrics:  obs.NewHTTPCollector(),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /query", s.instrument("/query", s.handleQuery))
	s.mux.HandleFunc("POST /session", s.instrument("/session", s.handleSessionCreate))
	s.mux.HandleFunc("DELETE /session/{id}", s.instrument("/session", s.handleSessionDelete))
	s.mux.HandleFunc("POST /prepare", s.instrument("/prepare", s.handlePrepare))
	s.mux.HandleFunc("POST /execute", s.instrument("/execute", s.handleExecute))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	return s
}

// Handler returns the server's route table, ready to mount on an
// http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the server into shutdown mode: /healthz reports 503 so load
// balancers stop routing here, new queries are refused with KindDraining,
// and requests already executing run to completion (the caller then uses
// http.Server.Shutdown to wait for them).
func (s *Server) Drain() { s.draining.Store(true) }

// statusWriter captures the final status code for the request metric.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-endpoint request metric.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.metrics.RecordRequest(endpoint, sw.status, time.Since(start))
		if s.draining.Load() && sw.status < 300 {
			s.metrics.RecordDrained()
		}
	}
}

// writeError emits the typed error envelope.
func writeError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Kind: kind, Error: fmt.Sprintf(format, args...)})
}

// writeEngineError maps an engine error onto HTTP status + kind. Untyped
// errors are client errors (parse, bind, argument mismatch): everything the
// engine itself can get wrong is typed ErrInternal.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, dqo.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, KindQueueFull, "%v", err)
	case errors.Is(err, dqo.ErrTimeout):
		writeError(w, http.StatusGatewayTimeout, KindTimeout, "%v", err)
	case errors.Is(err, dqo.ErrCancelled):
		writeError(w, http.StatusRequestTimeout, KindCancelled, "%v", err)
	case errors.Is(err, dqo.ErrMemoryBudgetExceeded):
		writeError(w, http.StatusRequestEntityTooLarge, KindMemBudget, "%v", err)
	case errors.Is(err, dqo.ErrSpillLimitExceeded):
		writeError(w, http.StatusRequestEntityTooLarge, KindSpillBudget, "%v", err)
	case errors.Is(err, dqo.ErrInternal):
		writeError(w, http.StatusInternalServerError, KindInternal, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
	}
}

// decode parses a JSON request body with numbers preserved (see
// ConvertArgs) and unknown fields rejected.
func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

// admit passes the request through the tenant's gate, then the global one.
// Tenant-first ordering is the isolation boundary: a request waiting for a
// global slot holds only its own tenant's slot, so a noisy tenant that
// saturates its quota queues (then sheds) against itself without pinning
// global capacity the other tenants need. The returned release frees both
// slots.
func (s *Server) admit(r *http.Request, tenant string) (release func(), err error) {
	relTenant, err := s.tenants.Enter(r.Context(), tenant)
	if err != nil {
		return nil, err
	}
	relGlobal, err := s.gate.Enter(r.Context())
	if err != nil {
		relTenant()
		return nil, err
	}
	return func() { relGlobal(); relTenant() }, nil
}

// timeout resolves a request's execution deadline from timeout_ms.
func (s *Server) timeout(millis int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if millis > 0 {
		d = time.Duration(millis) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// queryOptions builds the per-execution option set.
func (s *Server) queryOptions(timeoutMillis int64) []dqo.QueryOption {
	opts := []dqo.QueryOption{dqo.WithTimeout(s.timeout(timeoutMillis))}
	if s.cfg.MemPerQuery > 0 {
		opts = append(opts, dqo.WithMemoryLimit(s.cfg.MemPerQuery))
	}
	return opts
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	var req QueryRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	mode, err := ParseMode(req.Mode, s.cfg.DefaultMode)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	tenant := ""
	if req.Session != "" {
		sess, ok := s.sessions.get(req.Session)
		if !ok {
			writeError(w, http.StatusNotFound, KindNotFound, "unknown or expired session %q", req.Session)
			return
		}
		tenant = sess.tenant
	}
	release, err := s.admit(r, tenant)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	defer release()

	start := time.Now()
	var res *dqo.Result
	if len(req.Args) > 0 {
		// Parameterised one-shot: prepare transiently so the execution rides
		// the plan-template cache exactly like /prepare + /execute would.
		args, cerr := ConvertArgs(req.Args)
		if cerr != nil {
			writeError(w, http.StatusBadRequest, KindInvalid, "%v", cerr)
			return
		}
		stmt, perr := s.db.Prepare(mode, req.SQL)
		if perr != nil {
			writeEngineError(w, perr)
			return
		}
		res, err = stmt.QueryWith(r.Context(), args, s.queryOptions(req.TimeoutMillis)...)
	} else {
		res, err = s.db.Query(r.Context(), mode, req.SQL, s.queryOptions(req.TimeoutMillis)...)
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	s.writeResult(w, res, time.Since(start))
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	// An empty body is a valid anonymous-session request.
	var req SessionRequest
	if r.ContentLength != 0 {
		if err := decode(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
			return
		}
	}
	sess, err := s.sessions.create(req.Tenant)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, KindQueueFull, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(SessionResponse{
		Session:    sess.id,
		TTLSeconds: int64(s.cfg.SessionTTL / time.Second),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.drop(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, KindNotFound, "unknown or expired session %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	var req PrepareRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, "unknown or expired session %q", req.Session)
		return
	}
	mode, err := ParseMode(req.Mode, s.cfg.DefaultMode)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	stmt, err := s.db.Prepare(mode, req.SQL)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	handle, err := sess.put(stmt, s.cfg.MaxStmts)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, KindQueueFull, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(PrepareResponse{
		Stmt:        handle,
		NumParams:   stmt.NumParams(),
		Fingerprint: stmt.Fingerprint(),
	})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	var req ExecuteRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, "unknown or expired session %q", req.Session)
		return
	}
	stmt, ok := sess.get(req.Stmt)
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, "unknown statement %q in session", req.Stmt)
		return
	}
	args, err := ConvertArgs(req.Args)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	release, err := s.admit(r, sess.tenant)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	defer release()

	start := time.Now()
	res, err := stmt.QueryWith(r.Context(), args, s.queryOptions(req.TimeoutMillis)...)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	s.writeResult(w, res, time.Since(start))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.db.WriteMetrics(w); err != nil {
		return
	}
	sessions, stmts := s.sessions.counts()
	_ = s.metrics.WriteProm(w, obs.HTTPGauges{
		Sessions:      sessions,
		PreparedStmts: stmts,
		Running:       s.gate.Running(),
		Queued:        s.gate.Queued(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// writeResult streams the result relation as the QueryResponse JSON shape:
// the envelope is hand-written so rows go out one at a time through the
// Result's Next/Scan cursor instead of materialising a row-major copy.
func (s *Server) writeResult(w http.ResponseWriter, res *dqo.Result, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	cols := res.Columns()
	if cols == nil {
		cols = []string{}
	}
	head, err := json.Marshal(cols)
	if err != nil {
		writeError(w, http.StatusInternalServerError, KindInternal, "%v", err)
		return
	}
	fmt.Fprintf(w, `{"columns":%s,"rows":[`, head)
	cells := make([]any, len(cols))
	dests := make([]any, len(cols))
	for i := range cells {
		dests[i] = &cells[i]
	}
	n := 0
	for res.Next() {
		if s.cfg.MaxRows > 0 && n >= s.cfg.MaxRows {
			break
		}
		if err := res.Scan(dests...); err != nil {
			// The envelope is already on the wire; truncate the stream. The
			// client's JSON decoder reports the malformed body.
			fmt.Fprintf(w, `],"error":%q}`, err.Error())
			return
		}
		row, err := json.Marshal(cells)
		if err != nil {
			fmt.Fprintf(w, `],"error":%q}`, err.Error())
			return
		}
		if n > 0 {
			fmt.Fprint(w, ",")
		}
		w.Write(row)
		n++
	}
	fmt.Fprintf(w, `],"row_count":%d,"elapsed_ms":%g}`, res.NumRows(),
		float64(elapsed.Microseconds())/1000)
}
