package bench

import (
	"fmt"

	"viampi/internal/sweep"
)

// ExtMicro is the exact-integer anchor under the figures: the ping-pong,
// bandwidth and MPI_Init measurements the figure tables are built from,
// printed in whole virtual nanoseconds instead of the tables' 0.1 us, plus
// the deterministic side of two host-time rails — the recorded CG replay
// (events, virtual time, bundle size) and boot-only worlds (events, virtual
// time). A drift of one nanosecond anywhere in the stack moves a row here.
// The shape is fixed: Quick does not shrink it, so the quick golden and the
// full evaluation pin the same numbers. What the same shapes cost the host
// is benchmark/'s to measure (pingpong_8b, mesh_boot,
// capture.write_ns_per_event).
func ExtMicro(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ext-micro",
		Title:   "Micro snapshot in exact integers: virtual ns, events, bytes (cLAN)",
		Columns: []string{"quantity", "case", "value"},
		Notes:   []string{"same shape in quick and full mode; the figure tables round to 0.1 us, these rows show a 1 ns drift"},
	}
	mechs := []Mechanism{StaticPolling, OnDemand}
	var jobs []sweep.Job[[][]string]
	add := func(id string, run func() ([][]string, error)) {
		jobs = append(jobs, sweep.Job[[][]string]{ID: "ext-micro/" + id, Run: run})
	}
	for _, mech := range mechs {
		for _, size := range []int{8, 1024, 4096, 16384} {
			id := fmt.Sprintf("%s/%dB", mech.Name, size)
			add("pingpong/"+id, func() ([][]string, error) {
				lat, err := Pingpong("clan", mech, size, 50, 0, opt.Seed)
				return [][]string{{"pingpong one-way (ns)", id, fmt.Sprint(int64(lat))}}, err
			})
		}
	}
	for _, mech := range mechs {
		id := mech.Name + "/16384B"
		add("bandwidth/"+id, func() ([][]string, error) {
			mbps, err := Bandwidth("clan", mech, 16384, 100, opt.Seed)
			return [][]string{{"bandwidth (MB/s)", id, fmt.Sprintf("%.3f", mbps)}}, err
		})
	}
	for _, mech := range mechs {
		for _, np := range []int{8, 16} {
			id := fmt.Sprintf("%s/np=%d", mech.Name, np)
			add("init/"+id, func() ([][]string, error) {
				d, err := InitTime("clan", mech, np, opt.Seed)
				return [][]string{{"MPI_Init avg (ns)", id, fmt.Sprint(int64(d))}}, err
			})
		}
	}
	for _, record := range []bool{false, true} {
		add(fmt.Sprintf("capture/record=%v", record), func() ([][]string, error) {
			res, err := CaptureWorkload(record, opt.Seed)
			rows := [][]string{
				{"capture events", res.Name, fmt.Sprint(res.Events)},
				{"capture virtual (ns)", res.Name, fmt.Sprint(res.VirtualNS)},
			}
			if record {
				rows = append(rows, []string{"capture bundle (bytes)", res.Name, fmt.Sprint(res.BundleBytes)})
			}
			return rows, err
		})
	}
	for _, boot := range []struct {
		mech  Mechanism
		procs int
	}{{OnDemand, 1024}, {StaticPolling, 256}} {
		id := fmt.Sprintf("%s/np=%d", boot.mech.Name, boot.procs)
		add("boot/"+id, func() ([][]string, error) {
			events, virtual, err := bootCost(boot.mech, boot.procs, opt.Seed)
			return [][]string{
				{"boot events", id, fmt.Sprint(events)},
				{"boot virtual (ns)", id, fmt.Sprint(int64(virtual))},
			}, err
		})
	}
	cells, err := runGrid(opt, "ext-micro", jobs)
	if err != nil {
		return nil, err
	}
	for _, rows := range cells {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}
