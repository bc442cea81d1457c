// Command admitbench is the repository's end-to-end benchmark: an
// open-loop admission load against the SOAR placement service, booted
// in-process behind a real http.Server on a loopback listener, exactly
// as soar-naasd builds it with its shipped defaults.
//
//	bash admitbench/run.sh --workload sharded-replicated --seed 1 --seconds 40 --trace 0
//
// Every tenant POSTs /v1/tenants, GETs its lease halfway through an
// exponentially distributed hold and DELETEs it when the hold ends;
// /metrics is scraped once a second. Arrivals are Poisson and the load
// is open loop, driven by at most one caller (and one connection) per
// CPU. With --trace 0 a run measures the end-to-end metrics: set-up
// time, latency at a fixed rate, CPU per operation, lease quality,
// memory, and the highest rate that meets the latency limit. With
// --trace 1 it measures the per-layer split instead (see layers.go).
//
// Every lease is validated against the tenant's load and the drained
// service is audited at the end; any violation fails the run. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Exit status: 0 for a correct run, 1 when a check failed (the JSON
// says correct: false), 2 when the run could not measure validly (bad
// flags, set-up failure, generator falling behind, a growing backlog
// at the fixed rate, too few samples); no JSON is printed then.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"soar/internal/ha"
	"soar/internal/topology"
)

type tenantKind int

const (
	kindSparse   tenantKind = iota // 8 random racks of the whole tree
	kindDense                      // every leaf loaded
	kindPodLocal                   // 8 racks inside one random pod
)

// sparseRacks is the rack count of a sparse tenant.
const sparseRacks = 8

// workload is one traffic mix. Why each measured one exists, and which
// layer metrics it should move, is recorded in BENCHMARK.json;
// sparse-churn runs by name but stays out of it, since the measured
// runs of three workloads at the run length BENCHMARK.json sets do not
// fit the time a full measurement may take (sharded-replicated carries
// the same sparse tenants through every layer).
type workload struct {
	name string
	kind tenantKind
	// rate is the fixed-phase Poisson admission rate per second; hold
	// the mean tenant lifetime.
	rate float64
	hold time.Duration
}

var workloads = []*workload{
	{name: "sparse-churn", kind: kindSparse, rate: 150, hold: 100 * time.Millisecond},
	// dense-contended keeps about 100 dense tenants live (rate × hold),
	// enough to exhaust capacity near the root, at a low arrival rate:
	// faster arrivals overlap dense requests on the two callers so often
	// that admit_p99_ms is set by that overlap, which grows about twice
	// as fast as the machine slows.
	{name: "dense-contended", kind: kindDense, rate: 50, hold: 2 * time.Second},
	{name: "sharded-replicated", kind: kindPodLocal, rate: 150, hold: 100 * time.Millisecond},
}

// Run-validity limits and the latency objective.
const (
	// sloLimit is the admit p99 objective slo_rate_per_s is searched
	// against. It sits above the isolated stalls of a few tens of
	// milliseconds that a shared machine (and the dense workload's
	// re-packing rounds) put into a few-second probe, so the search finds
	// the saturation knee rather than the chance of one such stall.
	sloLimit = 100 * time.Millisecond
	// lagLimit bounds the generator's p99 lateness; a run beyond it
	// measured the generator, not the service.
	lagLimit = 5 * time.Millisecond
	// p99Windows is the most consecutive windows admit_p99_ms is the
	// median over; minTailSamples is what each window's p99 needs: ten
	// samples beyond it.
	p99Windows     = 5
	minTailSamples = 1000
	// setupBoots is how many times set-up is measured per run.
	setupBoots = 31
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the run's human-readable lines, metrics and verdict.
type report struct {
	res     result
	invalid []string
}

func (rp *report) printf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func (rp *report) metric(name string, v float64, unit string) {
	rp.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// timing prints a sample as every timing is printed: p50, the tail
// percentile that keeps ten samples beyond it, and n.
func (rp *report) timing(label string, d dist) {
	rp.printf("  %-26s %s", label, d)
}

func (rp *report) invalidf(format string, args ...any) {
	rp.invalid = append(rp.invalid, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: sparse-churn, dense-contended or sharded-replicated")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same tenants and arrival times")
	seconds := flag.Int("seconds", 10, "length of the fixed-rate phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "admitbench: need --workload (sparse-churn|dense-contended|sharded-replicated), --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}

	rp := &report{res: result{Correct: true, Metrics: map[string]metric{}}}
	rp.printf("admitbench workload=%s seed=%d seconds=%d trace=%d", w.name, *seed, *seconds, *trace)
	for _, line := range machineStamp() {
		rp.printf("  %s", line)
	}
	// The traced run replays the first quarter of the same schedule in each
	// of its passes (see layers.go).
	span := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		span /= 4
	}
	in, err := generate(w, *seed, span)
	if err != nil {
		fmt.Fprintf(os.Stderr, "admitbench: generate inputs: %v\n", err)
		os.Exit(2)
	}
	callers := runtime.NumCPU()
	rp.printf("  callers %d (one connection each), open loop, Poisson %.0f/s, mean hold %v, k=%d",
		callers, w.rate, w.hold, budget)

	if *trace == 0 {
		err = runEndToEnd(rp, w, in, callers)
	} else {
		err = runTraced(rp, w, in, callers)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "admitbench: %v\n", err)
		os.Exit(2)
	}
	if len(rp.invalid) > 0 {
		for _, s := range rp.invalid {
			fmt.Fprintf(os.Stderr, "admitbench: invalid run: %s\n", s)
		}
		os.Exit(2)
	}
	out, err := json.Marshal(rp.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "admitbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !rp.res.Correct {
		os.Exit(1)
	}
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	tree    *topology.Tree
	tenants []tenant
	fixed   schedule
	seed    int64
}

func generate(w *workload, seed int64, span time.Duration) (*inputs, error) {
	tree, err := topology.BT(treeSize)
	if err != nil {
		return nil, err
	}
	var part *ha.Partitioning
	if w.kind == kindPodLocal {
		if part, err = ha.Partition(tree, podLevel); err != nil {
			return nil, err
		}
	}
	in := &inputs{tree: tree, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	// The arrival process is drawn first, so the tenant count is known;
	// the tenants come from a second stream of the same seed.
	in.fixed = poissonSchedule(rng, w.rate, w.hold, span, math.MaxInt32, 0)
	in.tenants = genTenants(w, tree, part, in.fixed.admits(), rand.New(rand.NewSource(seed^0x5eed)))
	return in, nil
}
