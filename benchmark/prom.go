package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"sr3/benchmark/kinds"
	"sr3/internal/metrics"
)

// scrape is one parsed /metrics exposition: plain samples by family name
// and histograms rebuilt on the stock bucket layout, so two scrapes of a
// node subtract into the measurement window.
type scrape struct {
	values map[string]float64
	hists  map[string]kinds.Hist
}

// bucketUppers maps a bucket's exclusive upper bound to its index.
var bucketUppers = func() []int64 {
	u := make([]int64, metrics.Buckets())
	for i := range u {
		u[i] = metrics.BucketUpper(i)
	}
	return u
}()

func parseScrape(text string) scrape {
	s := scrape{values: map[string]float64{}, hists: map[string]kinds.Hist{}}
	prevCum := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, labels := line[:sp], ""
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name, labels = name[:b], name[b:]
		}
		val := line[sp+1:]
		fam, isBucket := strings.CutSuffix(name, "_bucket")
		if !isBucket {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				s.values[name] = v
			}
			continue
		}
		le := labels[strings.Index(labels, `le="`)+4:]
		le = le[:strings.IndexByte(le, '"')]
		cum, err := strconv.ParseInt(val, 10, 64)
		if err != nil || le == "+Inf" {
			continue
		}
		sec, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		upper := int64(math.Round(sec * 1e9))
		i := sort.Search(len(bucketUppers), func(i int) bool { return bucketUppers[i] >= upper })
		h := s.hists[fam]
		if h.Buckets == nil {
			h.Buckets = map[int]int64{}
		}
		h.Buckets[i] = cum - prevCum[fam]
		h.Count = cum
		prevCum[fam] = cum
		s.hists[fam] = h
	}
	return s
}

// delta is end-minus-start of a counter (start may be an empty scrape).
func (s scrape) delta(start scrape, name string) float64 {
	return s.values[name] - start.values[name]
}

func (s scrape) hist(start scrape, name string) kinds.Hist {
	return s.hists[name].Sub(start.hists[name])
}
