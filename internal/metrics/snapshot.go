package metrics

// RegistrySnapshot is a point-in-time, wire-friendly (gob/JSON) copy of
// a Registry — the payload of the cluster metrics-federation pull. The
// seed reconstructs a Registry from it (RegistryFromSnapshot) and serves
// the result under the member's node= label, so a federated scrape is
// byte-compatible with scraping the member directly. Histograms travel
// as sparse bucket lists: a 488-slot HDR layout with a handful of
// populated buckets costs a few dozen ints on the wire.
type RegistrySnapshot struct {
	Hists    map[string]HistSnapshot
	Gauges   map[string]int64
	Counters map[string]int64
	// Help carries only explicit SetHelp overrides; catalog help
	// (help.go) is resolved again on the receiving side.
	Help map[string]string
}

// HistSnapshot is one LatencyHistogram as sparse (bucket, count) pairs.
type HistSnapshot struct {
	Buckets []int   // indices of non-empty buckets, ascending
	Counts  []int64 // observation count per bucket, parallel to Buckets
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
}

// Snapshot copies the registry's current instrument values. Concurrent
// recording continues; the copy is internally consistent per instrument
// (each value is one atomic load) but not across instruments, which is
// the same guarantee a Prometheus scrape has.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := r.snapshot()
	out := RegistrySnapshot{
		Hists:    make(map[string]HistSnapshot, len(s.histNames)),
		Gauges:   make(map[string]int64, len(s.gaugeNames)),
		Counters: make(map[string]int64, len(s.counterNames)),
	}
	for _, name := range s.histNames {
		h := s.hists[name]
		hs := HistSnapshot{Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max()}
		for _, i := range h.NonEmptyBuckets() {
			hs.Buckets = append(hs.Buckets, i)
			hs.Counts = append(hs.Counts, h.BucketCount(i))
		}
		out.Hists[name] = hs
	}
	for _, name := range s.gaugeNames {
		out.Gauges[name] = s.gauges[name].Value()
	}
	for _, name := range s.counterNames {
		out.Counters[name] = s.counters[name].Value()
	}
	r.mu.Lock()
	for name, text := range r.help {
		if out.Help == nil {
			out.Help = make(map[string]string, len(r.help))
		}
		out.Help[name] = text
	}
	r.mu.Unlock()
	return out
}

// RegistryFromSnapshot rebuilds a Registry holding exactly the
// snapshot's values. The result is a live registry (recording into it
// works) but its intended life is read-only: one cluster scrape on the
// seed, dropped once it is rendered.
func RegistryFromSnapshot(s RegistrySnapshot) *Registry {
	r := NewRegistry()
	for name, hs := range s.Hists {
		h := r.Histogram(name)
		for i, b := range hs.Buckets {
			if b < 0 || b >= hdrBuckets || i >= len(hs.Counts) {
				continue
			}
			h.counts[b].Store(hs.Counts[i])
		}
		h.count.Store(hs.Count)
		h.sum.Store(hs.Sum)
		if hs.Count > 0 {
			h.min.Store(hs.Min + 1) // min slot stores value+1; 0 means unset
		}
		h.max.Store(hs.Max)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v) // fresh counter: Add from zero sets it
	}
	for name, text := range s.Help {
		r.SetHelp(name, text)
	}
	return r
}
