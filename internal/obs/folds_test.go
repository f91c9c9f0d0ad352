package obs

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// send is one user-level message event, the matrix fold's input.
func send(src, dst, bytes int) Event {
	return Event{Kind: EvMsgSend, Rank: int32(src), Peer: int32(dst), A: int64(bytes)}
}

func TestRecordAndCounts(t *testing.T) {
	m := NewMatrix(4)
	m.Consume(send(0, 1, 100))
	m.Consume(send(0, 1, 50))
	m.Consume(send(1, 2, 25))
	m.Consume(send(9, 1, 1))                                        // out of range: ignored
	m.Consume(Event{Kind: EvMsgRecv, Rank: 1, Peer: 0, A: 1 << 20}) // not a send: ignored
	if m.Messages(0, 1) != 2 || m.Bytes(0, 1) != 150 {
		t.Fatalf("0->1: %d msgs %d bytes", m.Messages(0, 1), m.Bytes(0, 1))
	}
	if m.TotalMessages() != 3 || m.TotalBytes() != 175 {
		t.Fatalf("totals: %d %d", m.TotalMessages(), m.TotalBytes())
	}
}

func TestDests(t *testing.T) {
	m := NewMatrix(5)
	m.Consume(send(2, 4, 1))
	m.Consume(send(2, 0, 1))
	m.Consume(send(2, 4, 1))
	m.Consume(send(2, 2, 1)) // self: excluded
	ds := m.Dests(2)
	if len(ds) != 2 || ds[0] != 0 || ds[1] != 4 {
		t.Fatalf("dests = %v", ds)
	}
	if m.MaxDests() != 2 {
		t.Fatalf("max = %d", m.MaxDests())
	}
	if got := m.AvgDests(); got != 2.0/5 {
		t.Fatalf("avg = %v", got)
	}
}

func TestDensity(t *testing.T) {
	m := NewMatrix(3)
	if m.Density() != 0 {
		t.Fatal("empty density")
	}
	for s := 0; s < 3; s++ {
		for d := 0; d < 3; d++ {
			if s != d {
				m.Consume(send(s, d, 1))
			}
		}
	}
	if m.Density() != 1.0 {
		t.Fatalf("full density = %v", m.Density())
	}
}

func TestRenderMatrixAndSummary(t *testing.T) {
	m := NewMatrix(3)
	for i := 0; i < 123; i++ {
		m.Consume(send(0, 1, 10))
	}
	m.Consume(send(1, 2, 10))
	var buf bytes.Buffer
	m.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, ".3.") { // 123 msgs => decade 3
		t.Fatalf("matrix missing decade cell:\n%s", out)
	}
	if !strings.Contains(out, "messages: 124") {
		t.Fatalf("summary:\n%s", out)
	}
}

func TestCellChar(t *testing.T) {
	cases := map[int64]string{0: ".", 1: "1", 9: "1", 10: "2", 99: "2", 100: "3", 1e12: "9"}
	for n, want := range cases {
		if got := cellChar(n); got != want {
			t.Errorf("cellChar(%d) = %s, want %s", n, got, want)
		}
	}
}

// Property: the matrix, its destination sets and its density agree with an
// independently-maintained reference.
func TestPropertyMatrixConsistency(t *testing.T) {
	f := func(raw []uint16) bool {
		m := NewMatrix(8)
		ref := map[[2]int]int64{}
		for _, v := range raw {
			s, d := int(v)%8, int(v>>8)%8
			m.Consume(send(s, d, 1))
			ref[[2]int{s, d}]++
		}
		pairs := 0
		for k, n := range ref {
			if m.Messages(k[0], k[1]) != n {
				return false
			}
			if k[0] != k[1] {
				pairs++
			}
		}
		dests := 0
		for r := 0; r < 8; r++ {
			for _, d := range m.Dests(r) {
				if ref[[2]int{r, d}] == 0 {
					return false
				}
			}
			dests += len(m.Dests(r))
		}
		return dests == pairs && m.Density() == float64(pairs)/56
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// span is one outermost MPI call on one rank, the profile fold's input.
func span(p *CallProfile, rank int, name string, begin, end int64) {
	p.Consume(Event{T: begin, Kind: EvCallBegin, Rank: int32(rank), Peer: -1, Name: name})
	p.Consume(Event{T: end, Kind: EvCallEnd, Rank: int32(rank), Peer: -1, Name: name})
}

// TestCallProfileFold: spans accumulate per call and per rank, a call one
// of two ranks issued shows imbalance 2.00 and a zero rank-min, rows sort by
// total time, and a span on a rank outside the job is ignored.
func TestCallProfileFold(t *testing.T) {
	p := NewCallProfile(2)
	span(p, 0, "Barrier", 100, 400)
	span(p, 1, "Barrier", 100, 200)
	span(p, 0, "Barrier", 500, 600)
	span(p, 0, "Send", 700, 750)
	span(p, 7, "Send", 0, 1_000_000)
	if p.Calls("Barrier") != 3 || p.Time("Barrier", 0) != 400 || p.Time("Barrier", 1) != 100 {
		t.Fatalf("Barrier: %d calls, %d / %d ns", p.Calls("Barrier"), p.Time("Barrier", 0), p.Time("Barrier", 1))
	}
	if p.Calls("Send") != 1 || p.Time("Send", 1) != 0 || p.Time("Recv", 0) != 0 {
		t.Fatalf("Send: %d calls, rank 1 %d ns", p.Calls("Send"), p.Time("Send", 1))
	}
	var buf bytes.Buffer
	p.WriteText(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "Barrier") || !strings.HasPrefix(lines[2], "Send") {
		t.Fatalf("rows not sorted by total time:\n%s", buf.String())
	}
	// call count total avg min max imbal
	if got := strings.Fields(lines[1]); got[1] != "3" || got[2] != "500ns" || got[3] != "166ns" || got[4] != "100ns" || got[5] != "400ns" || got[6] != "1.60" {
		t.Fatalf("Barrier row: %v", got)
	}
	if got := strings.Fields(lines[2]); got[4] != "0s" || got[6] != "2.00" {
		t.Fatalf("Send row: %v", got)
	}
}

// TestEmptyFoldsRender pins what each fold prints for a stream that never
// fed it (a tcpvia bundle has no call spans and no run epilogue).
func TestEmptyFoldsRender(t *testing.T) {
	var prof, phases bytes.Buffer
	NewCallProfile(4).WriteText(&prof)
	NewPhaseTable().WriteText(&phases)
	if !strings.HasPrefix(prof.String(), "profile: empty") || !strings.HasPrefix(phases.String(), "phases: empty") {
		t.Fatalf("empty renderings:\n%s%s", prof.String(), phases.String())
	}
}

// TestPhaseTableRowsInRankOrder: epilogue records arrive in finish order,
// rows render in rank order, each normalized against EvRunEnd's time.
func TestPhaseTableRowsInRankOrder(t *testing.T) {
	table := NewPhaseTable()
	for _, rank := range []int32{2, 0, 1} {
		table.Consume(Event{Kind: EvPhase, Rank: rank, Peer: -1, A: int64(PhaseCompute), B: int64(rank+1) * 1e6})
	}
	table.Consume(Event{Kind: EvPhase, Rank: 0, Peer: -1, A: int64(NumPhases), B: 1}) // unknown phase: ignored
	table.Consume(Event{T: 4e6, Kind: EvRunEnd, Rank: -1, Peer: -1, A: 3})
	var buf bytes.Buffer
	table.WriteText(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 3 rows:\n%s", buf.String())
	}
	for i, want := range []string{"25.0%", "50.0%", "75.0%"} {
		f := strings.Fields(lines[i+1])
		if f[0] != string(rune('0'+i)) || f[1] != "4.00ms" || f[3] != want {
			t.Fatalf("row %d = %v, want rank %d at %s compute", i, f, i, want)
		}
	}
}
