package bench

import (
	"testing"
	"time"

	"sr3/internal/detector"
	"sr3/internal/leakcheck"
	"sr3/internal/stream"
	"sr3/internal/supervise"
)

// TestRigCloseLeakFree: a scenario that fails halfway — runtime started,
// input open, a background pump still offering, a supervisor and its
// detectors running, the state owner dead — returns early, and the
// deferred Close alone must leave no goroutine behind.
func TestRigCloseLeakFree(t *testing.T) {
	defer leakcheck.Verify(t)()
	failed := func() error {
		r, err := newRig(rigOpts{seed: 5, mechanism: MechSR3Star, cfg: stream.Config{
			SaveEveryTuples: rigSaveEvery,
		}})
		if err != nil {
			return err
		}
		defer r.Close()
		sup := r.supervise(supervise.Config{Detector: detector.Config{Interval: 10 * time.Millisecond, Threshold: 8}})
		sup.Protect(supervise.StateSpec{App: rigCountKey, TaskBound: true})
		if err := sup.Start(); err != nil {
			return err
		}
		r.pump(0, 200, 0)
		if err := r.saveAll(); err != nil {
			return err
		}
		r.pumpAsync(200, 2000, 4000)
		if err := r.killOwner(0); err != nil {
			return err
		}
		return waitUntil(0, func() bool { return false }) // the scenario gives up here
	}
	if err := failed(); err == nil {
		t.Fatal("scenario was meant to fail")
	}
}
