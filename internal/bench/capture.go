package bench

// Capture workload: the same CG replay run twice, once with only a counting
// subscriber on the bus and once with a capture.Writer encoding every event
// into the void. The event count, virtual time, and bundle size are pure
// functions of the workload shape and are pinned as rows of ext-micro; what
// recording costs the host is benchmark/'s capture.* and trace.overhead_pct
// metrics. Like simcore.go, this file stays wall-clock-free — timing is the
// caller's job.

import (
	"fmt"
	"io"

	"viampi/internal/apps"
	"viampi/internal/mpi"
	"viampi/internal/obs"
	"viampi/internal/obs/capture"
	"viampi/internal/simnet"
)

// CaptureResult is one capture-overhead workload outcome. Every field is
// deterministic for a given (record, seed).
type CaptureResult struct {
	Name        string
	Events      int64
	BundleBytes int64 // encoded bundle size; 0 when recording is off
	VirtualNS   int64
}

// CaptureWorkload runs the CG communication pattern at 8 ranks under
// on-demand with the obs bus on, either counting events (record=false) or
// encoding them through a capture.Writer into io.Discard (record=true).
func CaptureWorkload(record bool, seed int64) (CaptureResult, error) {
	const procs, rounds, msgBytes = 8, 100, 1024
	cfg := mpi.Config{Procs: procs, Policy: "ondemand", Seed: seed}
	cfg.Obs = obs.NewBus()
	cfg.Deadline = 30 * simnet.Second

	var counted int64
	var cw *capture.Writer
	if record {
		w, err := capture.NewWriter(io.Discard, capture.Header{
			Clock:  capture.ClockVirtual,
			World:  procs,
			Seed:   seed,
			Device: "clan",
			Policy: cfg.Policy,
			Label:  "CG.overhead",
			Config: fmt.Sprintf("procs=%d policy=%s seed=%d rounds=%d msgBytes=%d",
				procs, cfg.Policy, seed, rounds, msgBytes),
		})
		if err != nil {
			return CaptureResult{}, err
		}
		cw = w
		cw.Attach(cfg.Obs)
	} else {
		sub := cfg.Obs.Subscribe(func(obs.Event) { counted++ })
		defer cfg.Obs.Unsubscribe(sub)
	}

	w, err := apps.Replay(apps.CG(), cfg, rounds, msgBytes)
	if err != nil {
		if cw != nil {
			cw.Close() // seal and detach; the Replay error is the one to report
		}
		return CaptureResult{}, err
	}
	res := CaptureResult{VirtualNS: int64(w.Elapsed)}
	res.Name = "capture-off/CG/np=8"
	res.Events = counted
	if cw != nil {
		if err := cw.Close(); err != nil {
			return CaptureResult{}, err
		}
		res.Name = "capture-on/CG/np=8"
		res.Events = cw.Events()
		res.BundleBytes = cw.Bytes()
	}
	return res, nil
}
