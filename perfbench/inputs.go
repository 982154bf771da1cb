package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ceps"
)

// Fixed parts of every workload: the generator seed of the DBLP graph (its
// default, so the graph is the same one the repo's experiments use), the
// Fast-CePS partitioner seed, and the score-cache budget of the cached
// engines. The run's --seed picks the queries, never the graph.
const (
	dataSeed   = 1
	partSeed   = 1
	cacheBytes = 128 << 20
	querySize  = 3 // sources per CePS query set
	teamSize   = 4 // replace: team members, the last of whom departs
)

// spec describes one workload. N, the number of timed queries, is
// perSecond × --seconds rounded up: the work is fixed per (seed, seconds),
// and the run goes to completion rather than stopping on a timer, so two
// runs at one seed answer exactly the same queries.
type spec struct {
	name      string
	scale     float64 // DBLP generator scale: 1 ≈ 4,000 authors
	clients   int     // closed-loop client goroutines
	perSecond float64 // timed queries per --seconds second
	warm      int     // untimed warm-up queries (hot: its whole working set)
	hotSets   int     // hot: distinct query sets in the working set
	cache     bool    // WithCache(cacheBytes)
	parts     int     // > 0: PrePartition(g, parts) + SetPartitioned
	replace   bool    // ReplaceSubteam trials instead of Do queries
}

var specs = map[string]spec{
	"cold":    {name: "cold", scale: 4, clients: 2, perSecond: 18, warm: 2, cache: true},
	"hot":     {name: "hot", scale: 4, clients: 2, perSecond: 112, hotSets: 32, cache: true},
	"replace": {name: "replace", scale: 1, clients: 2, perSecond: 2, warm: 1, replace: true},
	"fast":    {name: "fast", scale: 4, clients: 2, perSecond: 18, warm: 2, cache: true, parts: 20},
}

// item is one query: a CePS query set, or a replace trial (the team, its
// departing member and the held-out co-author the ranking is scored on).
type item struct {
	Nodes   []int
	Depart  int
	HeldOut int
}

type inputs struct {
	Timed []item
	Warm  []item
}

func (sp spec) count(seconds float64) int {
	n := int(math.Ceil(sp.perSecond * seconds))
	if n < 1 {
		n = 1
	}
	if sp.hotSets > 0 && n%sp.hotSets != 0 {
		n += sp.hotSets - n%sp.hotSets
	}
	return n
}

func (sp spec) dblpConfig() ceps.DBLPConfig {
	cfg := ceps.ScaleDBLP(ceps.DefaultDBLPConfig(), sp.scale)
	cfg.Seed = dataSeed
	return cfg
}

// makeInputs draws the workload's queries from seed. Only the inputs
// depend on the seed; the graph is fixed by the workload.
func makeInputs(sp spec, ds *ceps.Dataset, seed int64, seconds float64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	n := sp.count(seconds)
	switch {
	case sp.replace:
		return replaceInputs(rng, ds, n, sp.warm)
	case sp.hotSets > 0:
		return hotInputs(rng, ds, n, sp.hotSets)
	default:
		return coldInputs(rng, ds.Graph.N(), n, sp.warm)
	}
}

// coldInputs chunks one permutation of all nodes into query sets, so no
// source repeats anywhere in the run (warm-up included) and every cache
// lookup misses.
func coldInputs(rng *rand.Rand, nodes, n, warm int) (*inputs, error) {
	if (n+warm)*querySize > nodes {
		return nil, fmt.Errorf("%d distinct query sets of %d need more than the graph's %d nodes", n+warm, querySize, nodes)
	}
	perm := rng.Perm(nodes)
	sets := make([]item, n+warm)
	for i := range sets {
		sets[i] = item{Nodes: perm[i*querySize : (i+1)*querySize : (i+1)*querySize], Depart: -1, HeldOut: -1}
	}
	return &inputs{Warm: sets[:warm], Timed: sets[warm:]}, nil
}

// hotInputs draws a working set of distinct query sets from the paper's
// query repository and replays each one n/sets times in a seeded order. The
// warm-up answers every set once, so every timed source is a cache hit.
func hotInputs(rng *rand.Rand, ds *ceps.Dataset, n, sets int) (*inputs, error) {
	seen := map[[querySize]int]bool{}
	var work []item
	for tries := 0; len(work) < sets; tries++ {
		if tries > 100*sets {
			return nil, fmt.Errorf("query repository yields fewer than %d distinct query sets", sets)
		}
		q, err := ds.RandomQueries(rng, querySize, true)
		if err != nil {
			return nil, err
		}
		var key [querySize]int
		copy(key[:], q)
		sort.Ints(key[:])
		if seen[key] {
			continue
		}
		seen[key] = true
		work = append(work, item{Nodes: q, Depart: -1, HeldOut: -1})
	}
	order := make([]item, 0, n)
	for i := 0; i < n; i++ {
		order = append(order, work[i%sets])
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &inputs{Warm: work, Timed: order}, nil
}

// replaceInputs follows the held-out co-author recovery recipe: walk the
// papers in a seeded order, and from each paper with more than teamSize
// authors take a shuffled team of teamSize, depart its last member and hold
// out one more co-author of the same paper.
func replaceInputs(rng *rand.Rand, ds *ceps.Dataset, n, warm int) (*inputs, error) {
	bp := ds.Papers
	var trials []item
	for _, p := range rng.Perm(bp.Papers()) {
		if len(trials) == n+warm {
			break
		}
		authors := bp.PaperAuthors(p)
		if len(authors) < teamSize+1 {
			continue
		}
		pick := append([]int(nil), authors...)
		rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
		trials = append(trials, item{Nodes: pick[:teamSize:teamSize], Depart: pick[teamSize-1], HeldOut: pick[teamSize]})
	}
	if len(trials) < n+warm {
		return nil, fmt.Errorf("only %d papers have more than %d authors, want %d", len(trials), teamSize, n+warm)
	}
	return &inputs{Warm: trials[:warm], Timed: trials[warm:]}, nil
}

// digest hashes the inputs the program receives, in order.
func (in *inputs) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, list := range [][]item{in.Warm, in.Timed} {
		put(len(list))
		for _, it := range list {
			put(len(it.Nodes))
			for _, u := range it.Nodes {
				put(u)
			}
			put(it.Depart)
			put(it.HeldOut)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
