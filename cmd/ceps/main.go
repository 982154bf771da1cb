// Command ceps answers center-piece subgraph queries over a graph file.
//
// Usage:
//
//	ceps -graph g.txt -q "Alice,Bob,Carol" [flags]
//
// Query nodes may be given as node ids or labels (mixed). The result is
// printed as a readable listing and, with -dot, as Graphviz DOT.
//
// Flags mirror the paper's parameters: -k for the K_softAND coefficient
// (0 = AND, 1 = OR), -b for the budget, -c and -m for the random walk,
// -alpha and -norm for the normalization, and -partitions to enable Fast
// CePS (pre-partition, then answer on the query partitions).
//
// Batch mode: -queries-file FILE answers many query sets concurrently.
// Each line is either a comma-separated set ('#' starts a comment) or a
// JSON object in the /v1/query request schema (per-line k, budget,
// timeout_ms, no_degrade, coalesce overrides). Sets share the engine's
// score cache (-cache-mb, default 64 MiB) and solve pool (-workers), so
// overlapping sets pay each member's random walk once; cache statistics
// are printed to stderr. -query-timeout arms a deadline on each set
// individually; a set that fails or times out is reported inline without
// aborting the rest. With -json the batch is emitted as a JSON array in
// input order.
//
// Serve mode: -serve ADDR runs a long-lived HTTP query service instead
// of answering one query or batch: GET/POST /v1/query answers one typed
// request, POST /v1/batch an array of them, and the pre-v1 /query
// contract survives as a deprecated alias (it answers with a Deprecation
// header). -resilience adds admission control, load shedding (HTTP 429 +
// Retry-After), and a circuit breaker that serves relaxed-tolerance
// degraded answers (or fails fast with 503 under -no-degrade);
// -max-inflight and -max-queue size it. See README.md "Resilience".
// -coalesce merges concurrent queries' cache-miss solves into shared
// blocked panels (one multi-source solve instead of one per query) at the
// price of up to ~1ms of added latency per miss; answers are
// bit-identical.
// -artifacts DIR mmaps a cepspre-built precompute directory so cold
// queries over precomputed partition unions are answered by one row read
// instead of a power iteration (see the cepspre command).
// -admin ADDR additionally exposes the operational surface — Prometheus
// /metrics, /healthz, /debug/vars, and net/http/pprof — on its own
// address in every mode, so a long batch can be profiled while it runs.
// -slow-log D writes a JSON line to stderr for every query at least D
// slow; see README.md "Observability".
//
// Tracing: -trace-sample P (0 < P ≤ 1) records request-scoped span traces
// for that fraction of queries (failed queries are always kept), retaining
// the newest -trace-buffer traces for the admin endpoint's /debug/traces
// and /debug/traces/view pages. In serve mode every HTTP response — even
// a 400 or a 429 shed — carries an X-Ceps-Trace-Id header, so a slow or
// failed client request can be looked up with /debug/traces?id=<that id>.
//
// Execution is context-aware: -timeout bounds the whole run (graph load,
// optional pre-partition, and the query), and SIGINT/SIGTERM cancel the
// in-flight query at its next iteration boundary. Exit codes are distinct
// so scripts can tell failures apart:
//
//	0  success
//	1  query or I/O error
//	2  usage error
//	3  the -timeout deadline expired
//	4  canceled by SIGINT/SIGTERM
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"ceps"
	"ceps/internal/rwr"
)

// Exit codes; see the package comment.
const (
	exitOK       = 0
	exitError    = 1
	exitUsage    = 2
	exitDeadline = 3
	exitSignal   = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against argv and returns the process exit code.
// It installs the signal handler and the -timeout deadline around the
// whole pipeline, so a stuck partitioner or query is interruptible.
func run(argv []string, stdout, stderr io.Writer) int {
	// Verb dispatch: `ceps replace ...` answers a subteam-replacement
	// query (see replace.go), `ceps diag ...` pulls a diagnostic bundle
	// from a live server's admin endpoint (see diag.go); everything else
	// is the classic flag-driven center-piece query surface.
	if len(argv) > 0 && argv[0] == "replace" {
		return runReplace(argv[1:], stdout, stderr)
	}
	if len(argv) > 0 && argv[0] == "diag" {
		return runDiag(argv[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("ceps", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "path to a ceps-graph text file (required)")
		queryList = fs.String("q", "", "comma-separated query nodes: ids or labels (required)")
		k         = fs.Int("k", 0, "K_softAND coefficient: 0 = AND, 1 = OR, else k-out-of-Q")
		autoK     = fs.Bool("auto-k", false, "infer the K_softAND coefficient from the query set (overrides -k)")
		budget    = fs.Int("b", 20, "budget: max non-query nodes in the subgraph")
		c         = fs.Float64("c", 0.5, "random-walk continuation coefficient")
		m         = fs.Int("m", 50, "random-walk iterations")
		alpha     = fs.Float64("alpha", 0.5, "degree-penalization strength")
		norm      = fs.String("norm", "penalized", "normalization: column | penalized | symmetric")
		parts     = fs.Int("partitions", 0, "enable Fast CePS with this many pre-partitions (0 = off)")
		timeout   = fs.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
		dot       = fs.Bool("dot", false, "emit Graphviz DOT instead of a listing")
		jsonFmt   = fs.Bool("json", false, "emit the result as JSON instead of a listing")
		explain   = fs.Bool("explain", false, "print the key path that justified each node")

		queriesFile  = fs.String("queries-file", "", "answer a batch: one query set per line, comma-separated or a /v1/query JSON object (# starts a comment); mutually exclusive with -q")
		queryTimeout = fs.Duration("query-timeout", 0, "per-query-set deadline in batch mode, per-request deadline in serve mode (0 = none)")
		cacheMB      = fs.Int("cache-mb", 64, "score-cache budget in MiB, shared across the batch (0 = disable caching)")
		workers      = fs.Int("workers", 0, "max concurrent random-walk solves (0 = GOMAXPROCS)")
		coalesce     = fs.Bool("coalesce", false, "merge concurrent cache-miss solves into blocked multi-source panels (requires caching)")
		artifactsDir = fs.String("artifacts", "", "mmap a cepspre-built artifact directory: cold queries over precomputed partition unions become one row read (fingerprints must match this run's graph, RWR flags, -partitions and its seed)")

		serveAddr     = fs.String("serve", "", "run as a long-lived query service on this address (e.g. :8080) instead of answering -q/-queries-file")
		adminAddr     = fs.String("admin", "", "serve /metrics, /healthz, /debug/vars, pprof and /debug/traces on this address (e.g. :6060)")
		slowLog       = fs.Duration("slow-log", 0, "log queries at least this slow to stderr as JSON lines (0 = off)")
		shutdownGrace = fs.Duration("shutdown-grace", defaultShutdownGrace, "how long in-flight HTTP requests may drain after a shutdown signal")

		resilient   = fs.Bool("resilience", false, "enable the serving resilience layer: admission control, load shedding, and a circuit breaker with degraded answers")
		maxInflight = fs.Int("max-inflight", 0, "resilience: max concurrently admitted queries (0 = 2x workers)")
		maxQueue    = fs.Int("max-queue", 0, "resilience: admission queue depth (0 = 4x max-inflight, negative = shed instead of queueing)")
		noDegrade   = fs.Bool("no-degrade", false, "resilience: fail fast instead of serving relaxed-tolerance answers when the circuit breaker is open")

		traceSample = fs.Float64("trace-sample", 0, "record span traces for this fraction of queries, 0..1 (0 = tracing off)")
		traceBuffer = fs.Int("trace-buffer", 0, "how many sampled traces to retain for /debug/traces (0 = default 256)")

		flightDir   = fs.String("flight-dir", "", "arm the flight recorder: SLO tracking plus anomaly-triggered diagnostic bundles written under this directory (served on -admin's /debug/slo, /debug/flight, /debug/dashboard)")
		showVersion = fs.Bool("version", false, "print the ceps version and exit")
	)
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if *showVersion {
		// The same string /healthz and ceps_build_info report.
		fmt.Fprintf(stdout, "ceps %s %s\n", ceps.Version, runtime.Version())
		return exitOK
	}
	if *graphPath == "" {
		fs.Usage()
		return exitUsage
	}
	if *serveAddr == "" && (*queryList == "") == (*queriesFile == "") {
		fs.Usage()
		return exitUsage
	}
	if *serveAddr != "" && (*queryList != "" || *queriesFile != "" || *autoK) {
		fmt.Fprintln(stderr, "ceps: -serve answers queries over HTTP; it is exclusive with -q, -queries-file and -auto-k")
		return exitUsage
	}
	if *cacheMB < 0 || *workers < 0 {
		fmt.Fprintln(stderr, "ceps: -cache-mb and -workers must be non-negative")
		return exitUsage
	}
	if *coalesce && *cacheMB == 0 {
		fmt.Fprintln(stderr, "ceps: -coalesce requires caching; raise -cache-mb")
		return exitUsage
	}
	if *parts < 0 {
		fmt.Fprintf(stderr, "ceps: -partitions %d must be non-negative\n", *parts)
		return exitUsage
	}
	if *slowLog < 0 {
		fmt.Fprintf(stderr, "ceps: -slow-log %v must be non-negative\n", *slowLog)
		return exitUsage
	}
	if *shutdownGrace <= 0 {
		fmt.Fprintf(stderr, "ceps: -shutdown-grace %v must be positive\n", *shutdownGrace)
		return exitUsage
	}
	if !*resilient && (*maxInflight != 0 || *maxQueue != 0 || *noDegrade) {
		fmt.Fprintln(stderr, "ceps: -max-inflight, -max-queue and -no-degrade require -resilience")
		return exitUsage
	}
	if *maxInflight < 0 {
		fmt.Fprintf(stderr, "ceps: -max-inflight %d must be non-negative\n", *maxInflight)
		return exitUsage
	}
	if *traceSample < 0 || *traceSample > 1 {
		fmt.Fprintf(stderr, "ceps: -trace-sample %g must be in [0, 1]\n", *traceSample)
		return exitUsage
	}
	if *traceBuffer < 0 {
		fmt.Fprintf(stderr, "ceps: -trace-buffer %d must be non-negative\n", *traceBuffer)
		return exitUsage
	}

	// SIGINT/SIGTERM cancel ctx; -timeout arms a deadline on top. Every
	// phase below (InferK, pre-partition, the query itself) checks this
	// context at its iteration boundaries.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fail := func(err error) int { return failWith(err, stderr) }

	g, err := ceps.ReadGraphFile(*graphPath)
	if err != nil {
		return fail(err)
	}

	cfg := ceps.DefaultConfig()
	cfg.K = *k
	cfg.Budget = *budget
	cfg.RWR.C = *c
	cfg.RWR.Iterations = *m
	cfg.RWR.Alpha = *alpha
	switch *norm {
	case "column":
		cfg.RWR.Norm = rwr.NormColumn
	case "penalized":
		cfg.RWR.Norm = rwr.NormDegreePenalized
	case "symmetric":
		cfg.RWR.Norm = rwr.NormSymmetric
	default:
		fmt.Fprintf(stderr, "ceps: unknown normalization %q\n", *norm)
		return exitUsage
	}

	opts := []ceps.Option{ceps.WithConfig(cfg)}
	if *cacheMB > 0 {
		opts = append(opts, ceps.WithCache(int64(*cacheMB)<<20))
	}
	if *workers > 0 {
		opts = append(opts, ceps.WithWorkers(*workers))
	}
	if *coalesce {
		opts = append(opts, ceps.WithCoalescing(ceps.CoalesceOptions{}))
	}
	if *artifactsDir != "" {
		opts = append(opts, ceps.WithArtifactDir(*artifactsDir))
	}
	if *slowLog > 0 {
		opts = append(opts, ceps.WithSlowQueryLog(stderr, *slowLog))
	}
	if *traceSample > 0 {
		opts = append(opts, ceps.WithTracing(ceps.TracingOptions{
			SampleRate: *traceSample,
			Buffer:     *traceBuffer,
		}))
	}
	if *resilient {
		opts = append(opts, ceps.WithResilience(ceps.ResilienceOptions{
			MaxConcurrent: *maxInflight,
			MaxQueue:      *maxQueue,
			NoDegrade:     *noDegrade,
		}))
	}
	if *flightDir != "" {
		opts = append(opts, ceps.WithFlightRecorder(ceps.FlightRecorderOptions{Dir: *flightDir}))
	}
	eng, err := ceps.NewEngine(g, opts...)
	if err != nil {
		return fail(err)
	}
	if *parts > 0 {
		pt, err := eng.EnableFastModeCtx(ctx, *parts, ceps.PartitionOptions{Seed: 1})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "pre-partitioned into %d parts in %v\n", *parts, pt.PartitionTime)
	}

	if *serveAddr != "" {
		queryLn, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return fail(err)
		}
		var adminLn net.Listener
		if *adminAddr != "" {
			adminLn, err = net.Listen("tcp", *adminAddr)
			if err != nil {
				queryLn.Close()
				return fail(err)
			}
		}
		return serveListeners(ctx, eng, g, cfg, *queryTimeout, *shutdownGrace, queryLn, adminLn, stderr)
	}
	if *adminAddr != "" {
		stopAdmin, err := startAdmin(*adminAddr, eng, *shutdownGrace, stderr)
		if err != nil {
			return fail(err)
		}
		defer stopAdmin()
	}

	if *queriesFile != "" {
		if *autoK {
			fmt.Fprintln(stderr, "ceps: -auto-k is not supported in batch mode")
			return exitUsage
		}
		reqs, err := readQueryRequests(g, *queriesFile)
		if err != nil {
			return fail(err)
		}
		return runBatch(ctx, eng, g, reqs, cfg, batchOptions{
			perQueryTimeout: *queryTimeout,
			jsonOut:         *jsonFmt,
			explain:         *explain,
		}, stdout, stderr)
	}

	queries, err := parseQueries(g, *queryList)
	if err != nil {
		return fail(err)
	}
	if *autoK {
		inferred, supports, err := eng.InferKCtx(ctx, queries, 0)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "inferred k = %d (query support counts %v)\n", inferred, supports)
		cfg.K = inferred
		if err := eng.Reconfigure(cfg); err != nil {
			return fail(err)
		}
	}
	res, err := eng.Do(ctx, queries)
	if err != nil {
		return fail(err)
	}
	if res.Fallback != nil {
		fmt.Fprintf(stderr, "warning: degraded: %s\n", res.Fallback)
	}

	if *dot {
		if err := res.Subgraph.WriteDOT(stdout, g, cepsDotOptions(queries)); err != nil {
			return fail(err)
		}
		return exitOK
	}
	if *jsonFmt {
		if err := writeJSON(stdout, g, res, queries, cfg, *explain); err != nil {
			return fail(err)
		}
		return exitOK
	}

	fmt.Fprintf(stdout, "query type: %s, budget %d, response time %v\n",
		cfg.QueryTypeName(len(queries)), *budget, res.Elapsed)
	fmt.Fprintf(stdout, "subgraph: %d nodes, %d path edges, %d induced edges\n",
		res.Subgraph.Size(), len(res.Subgraph.PathEdges), len(res.Subgraph.InducedEdges))
	fmt.Fprintf(stdout, "NRatio: %.4f", res.NRatio())
	if er, err := res.ERatio(); err == nil {
		fmt.Fprintf(stdout, "  ERatio: %.4f", er)
	}
	fmt.Fprintln(stdout)

	// List nodes by descending combined score.
	type row struct {
		id    int
		score float64
	}
	rows := make([]row, 0, res.Subgraph.Size())
	isQuery := make(map[int]bool, len(queries))
	for _, q := range queries {
		isQuery[q] = true
	}
	for _, u := range res.Subgraph.Nodes {
		// Combined scores live in working-graph space; map via ToOrig.
		w := u
		if res.ToOrig != nil {
			w = sort.SearchInts(res.ToOrig, u)
		}
		rows = append(rows, row{id: u, score: res.Combined[w]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].score > rows[j].score })
	for _, r := range rows {
		tag := " "
		if isQuery[r.id] {
			tag = "Q"
		}
		fmt.Fprintf(stdout, "  %s %6d  %-40s r(Q,j)=%.3e\n", tag, r.id, g.Label(r.id), r.score)
	}

	if *explain {
		fmt.Fprintln(stdout, "\nwhy each node is here:")
		for _, line := range res.ExplainAll() {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
	}
	return exitOK
}

// failWith prints an error and classifies it into the exit-code scheme
// shared by every verb.
func failWith(err error, stderr io.Writer) int {
	// Library errors already carry the "ceps:" prefix; don't stutter.
	msg := err.Error()
	if !strings.HasPrefix(msg, "ceps:") {
		msg = "ceps: " + msg
	}
	fmt.Fprintln(stderr, msg)
	switch {
	case errors.Is(err, ceps.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return exitDeadline
	case errors.Is(err, ceps.ErrCanceled) || errors.Is(err, context.Canceled):
		return exitSignal
	default:
		return exitError
	}
}

func cepsDotOptions(queries []int) ceps.DOTOptions {
	return ceps.DOTOptions{Highlight: queries, IncludeInduced: true, Name: "ceps"}
}

// parseQueries resolves comma-separated ids or labels to node ids.
func parseQueries(g *ceps.Graph, list string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if id, err := strconv.Atoi(tok); err == nil {
			if id < 0 || id >= g.N() {
				return nil, fmt.Errorf("query id %d out of range [0,%d)", id, g.N())
			}
			out = append(out, id)
			continue
		}
		id, ok := g.NodeByLabel(tok)
		if !ok {
			return nil, fmt.Errorf("no node labeled %q", tok)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no query nodes given")
	}
	return out, nil
}
