package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/recovery"
	"sr3/internal/stream"
)

// SteadyConfig sizes the steady-state observability experiment: the same
// topology is run with instruments off and on to price the overhead, then
// a small instrumented overlay routes lookups and recovers one state so a
// single cluster scrape carries runtime, ring and recovery families.
type SteadyConfig struct {
	// Tuples pushed through the topology per run (default 200_000).
	Tuples int
	// RingSize is the overlay size for the ring portion (default 32).
	RingSize int
	// Lookups is how many keys are routed on the ring (default 256).
	Lookups int
	// Cluster, when non-nil, receives every registry the experiment
	// creates (runtime, ring nodes, recovery phases) so a -metrics
	// endpoint exposes them live; nil uses a private one.
	Cluster *metrics.ClusterRegistry
}

// steadySeed fixes the ring and the lookup keys.
const steadySeed = 7

func (c SteadyConfig) withDefaults() SteadyConfig {
	if c.Tuples <= 0 {
		c.Tuples = 200_000
	}
	if c.RingSize <= 0 {
		c.RingSize = 32
	}
	if c.Lookups <= 0 {
		c.Lookups = 256
	}
	if c.Cluster == nil {
		c.Cluster = metrics.NewClusterRegistry()
	}
	return c
}

// SteadyReport is the experiment outcome.
type SteadyReport struct {
	Tuples           int
	DisabledRate     float64 // tuples/s with Config.Metrics nil
	InstrumentedRate float64 // tuples/s with full task instruments
	OverheadPct      float64 // throughput cost of instrumentation
	RingSize         int
	Lookups          int
	MaxHops          int64
	Families         int // distinct metric families in one cluster scrape
	ScrapeBytes      int
}

// Format renders the report.
func (r SteadyReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "steady-state instrumentation overhead (%d tuples, seq->count->sink):\n", r.Tuples)
	fmt.Fprintf(&b, "  instruments off: %10.0f tuples/s\n", r.DisabledRate)
	fmt.Fprintf(&b, "  instruments on:  %10.0f tuples/s  (overhead %.1f%%)\n", r.InstrumentedRate, r.OverheadPct)
	fmt.Fprintf(&b, "ring: %d lookups across %d instrumented nodes (max %d hops), one star recovery traced to phase histograms\n",
		r.Lookups, r.RingSize, r.MaxHops)
	fmt.Fprintf(&b, "one cluster scrape: %d metric families, %d bytes\n", r.Families, r.ScrapeBytes)
	return b.String()
}

// runSteadyTopology runs the preloaded tuples through the rig's topology
// with the given instruments and returns the wall time of the run.
func runSteadyTopology(tuples int, reg *metrics.Registry, fr *obs.FlightRecorder) (time.Duration, error) {
	r, err := newRig(rigOpts{mechanism: mechMemory, preload: tuples, cfg: stream.Config{Metrics: reg, Flight: fr}})
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if err := r.finish(); err != nil {
		return 0, err
	}
	return time.Since(r.started), nil
}

// SteadyState measures the steady-state cost of the observability layer
// and assembles a representative one-scrape cluster view.
func SteadyState(cfg SteadyConfig) (SteadyReport, error) {
	cfg = cfg.withDefaults()
	rep := SteadyReport{Tuples: cfg.Tuples, RingSize: cfg.RingSize, Lookups: cfg.Lookups}

	// Throughput with instruments off, then on (full per-task counters,
	// latency histograms and queue gauges plus the flight journal).
	dOff, err := runSteadyTopology(cfg.Tuples, nil, nil)
	if err != nil {
		return rep, err
	}
	dOn, err := runSteadyTopology(cfg.Tuples, cfg.Cluster.Node("runtime"), obs.NewFlightRecorder(0))
	if err != nil {
		return rep, err
	}
	rep.DisabledRate = float64(cfg.Tuples) / dOff.Seconds()
	rep.InstrumentedRate = float64(cfg.Tuples) / dOn.Seconds()
	rep.OverheadPct = 100 * (1 - rep.InstrumentedRate/rep.DisabledRate)

	// Ring portion: an instrumented overlay routes random keys, then one
	// protected state is recovered with its phases traced into histograms.
	r, err := newRig(rigOpts{seed: steadySeed, mechanism: MechSR3Star, nodes: cfg.RingSize})
	if err != nil {
		return rep, err
	}
	defer r.Close()
	ring, rc := r.ring, r.cluster
	ring.EnableMetrics(cfg.Cluster)
	ids := ring.IDs()
	rng := rand.New(rand.NewSource(steadySeed))
	for i := 0; i < cfg.Lookups; i++ {
		origin := ring.Node(ids[rng.Intn(len(ids))])
		if _, hops, err := origin.Lookup(id.HashKey(fmt.Sprintf("steady-%d", i))); err == nil {
			if int64(hops) > rep.MaxHops {
				rep.MaxHops = int64(hops)
			}
		}
	}

	recReg := cfg.Cluster.Node("recovery")
	tracer := obs.New(obs.NewMetricsSink(recReg, ""))
	mgr := rc.Manager(ids[1])
	snap := make([]byte, 64<<10)
	rng.Read(snap)
	if _, err := mgr.Save("steady", snap, 8, 2, mgr.NextVersion(1)); err != nil {
		return rep, err
	}
	p, err := mgr.LookupPlacement("steady")
	if err != nil {
		return rep, err
	}
	ring.Fail(p.Owner)
	ring.MaintenanceRound()
	ring.MaintenanceRound()
	opts := recovery.DefaultOptions()
	opts.Tracer = tracer
	_, v, err := rc.RecoverAndReprotect("steady", recovery.Star, opts)
	if err != nil {
		return rep, err
	}
	v.Release()

	var scrape strings.Builder
	if err := cfg.Cluster.WritePrometheus(&scrape); err != nil {
		return rep, err
	}
	rep.ScrapeBytes = scrape.Len()
	rep.Families = strings.Count(scrape.String(), "# TYPE ")
	return rep, nil
}
