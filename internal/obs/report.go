package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Reports is the one flag → attach → render path for the five views of a
// run's event stream: the communication matrix, the per-call profile, the
// metrics registry, the phase table and the Perfetto trace. Every view is a
// fold over Events, so a live run (attach to mpi.Config.Obs, run, render)
// and a replay (attach to a fresh bus, Bundle.EmitAll, render) produce the
// same bytes because they are the same code.
type Reports struct {
	matrix, profile, metrics, phases bool
	traceTo                          string

	views  []view
	flight *Recorder
	bus    *Bus
	sub    Sub
}

// view is one attached fold and the renderer of what it accumulated.
type view struct {
	consume func(Event)
	write   func(io.Writer)
}

// Flags defines the five report flags on fs.
func (r *Reports) Flags(fs *flag.FlagSet) {
	fs.BoolVar(&r.matrix, "matrix", false, "print the communication matrix")
	fs.BoolVar(&r.profile, "profile", false, "print per-MPI-call time accounting")
	fs.BoolVar(&r.metrics, "metrics", false, "print the metrics registry")
	fs.BoolVar(&r.phases, "phases", false, "print the per-rank phase decomposition")
	fs.StringVar(&r.traceTo, "trace", "", "write a Perfetto/Chrome trace-event JSON `file`")
}

// Any reports whether any report was asked for, i.e. whether the run needs
// an event bus at all.
func (r *Reports) Any() bool {
	return r.matrix || r.profile || r.metrics || r.phases || r.traceTo != ""
}

// Attach subscribes the requested folds to b for a job of world ranks; with
// nothing requested it subscribes nothing.
func (r *Reports) Attach(b *Bus, world int) {
	if r.matrix {
		m := NewMatrix(world)
		r.views = append(r.views, view{m.Consume, m.WriteText})
	}
	if r.profile {
		p := NewCallProfile(world)
		r.views = append(r.views, view{p.Consume, p.WriteText})
	}
	if r.metrics {
		g := NewRegistry()
		r.views = append(r.views, view{NewCollector(g).Consume, g.WriteText})
	}
	if r.phases {
		t := NewPhaseTable()
		r.views = append(r.views, view{t.Consume, t.WriteText})
	}
	if r.traceTo != "" {
		r.flight = NewRecorder()
		r.flight.Attach(b)
	}
	if len(r.views) > 0 {
		r.bus, r.sub = b, b.Subscribe(func(e Event) {
			for _, v := range r.views {
				v.consume(e)
			}
		})
	}
}

// Render detaches the folds and writes the requested reports to w in flag
// order, separated by blank lines (and set off from the caller's own output
// by one when preamble is true); the trace goes to its file and leaves a
// one-line receipt on w.
func (r *Reports) Render(w io.Writer, preamble bool) error {
	r.bus.Unsubscribe(r.sub)
	section := func() {
		if preamble {
			fmt.Fprintln(w)
		}
		preamble = true
	}
	for _, v := range r.views {
		section()
		v.write(w)
	}
	if r.flight == nil {
		return nil
	}
	r.flight.Detach()
	f, err := os.Create(r.traceTo)
	if err != nil {
		return err
	}
	err = r.flight.WritePerfetto(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	section()
	fmt.Fprintf(w, "wrote %d events to %s (open in ui.perfetto.dev)\n", r.flight.Len(), r.traceTo)
	return nil
}
