// Package via emulates the Virtual Interface Architecture (VIA) over the
// simulated cluster fabric.
//
// It implements the subset of the VI Provider Library (VIPL 1.0) semantics
// that MPI implementations depend on: VIs with paired send/receive work
// queues, descriptor-based transfers with pre-posted receives, completion
// queues, registered (pinned) memory with per-process limits, RDMA writes,
// and the peer-to-peer connection model (VipConnectPeer*); internal/core
// builds MVICH's client-server startup as a rank-ordered schedule over it.
// Sends posted to an unconnected VI are discarded with an error status,
// exactly the hazard the paper's pre-posted send FIFO exists to avoid.
// Receives arriving on a VI with no posted descriptor put the VI into an
// error state (VIA reliable-delivery semantics).
//
// Two device personalities are provided as cost models. The cLAN model has
// hardware doorbells (per-message cost independent of the number of open
// VIs) and an interrupt-based blocking wait. The Berkeley VIA (BVIA) model
// mimics LANai firmware that polls every open VI's doorbell in round-robin,
// so per-message NIC service time grows linearly with the number of open VIs
// on the node — the effect in the paper's Figure 1 — and its "wait" is just
// an infinite poll.
package via

import (
	"viampi/internal/fabric"
	"viampi/internal/simnet"
)

// CostModel captures the timing and capacity personality of a VIA provider.
// All durations are virtual time.
type CostModel struct {
	Name string

	// Host CPU costs (charged to the calling process, usually as debt that
	// is flushed before the process blocks).
	PostOverhead    simnet.Duration // posting one descriptor (doorbell write)
	PollOverhead    simnet.Duration // one Done() poll
	HostCopyPerByte simnet.Duration // host memcpy cost per byte (MPI-level copies)

	// NIC service costs. PerVI terms model firmware that scans every open
	// VI's doorbell per packet (Berkeley VIA); zero for hardware doorbells.
	NicTxBase  simnet.Duration
	NicTxPerVI simnet.Duration
	NicRxBase  simnet.Duration
	NicRxPerVI simnet.Duration

	// Connection management costs.
	CreateViCost     simnet.Duration // driver call to create a VI endpoint
	ConnectLocalCost simnet.Duration // OS involvement per connect/accept call
	ConnectProcCost  simnet.Duration // target-side processing before the ACK

	// Completion waiting. If WaitIsSpin, blocking waits are implemented as a
	// poll loop (BVIA) and WaitWakeup never applies. Otherwise a wait that
	// actually blocks pays WaitWakeup (interrupt + reschedule) when
	// satisfied. SpinPollCost*spincount is the budget a spinwait burns
	// before falling back to a blocking wait.
	WaitIsSpin       bool
	WaitWakeup       simnet.Duration
	SpinPollCost     simnet.Duration
	DefaultSpinCount int

	// Capacities.
	MaxVIsPerPort  int   // hard per-process VI limit (NIC/driver resource)
	MaxPinnedBytes int64 // registered-memory limit per process
	MTU            int   // max bytes per data frame; larger sends fragment

	// Fixed wire overhead added to every frame (headers/CRC).
	FrameHeaderBytes int
}

// ClanCost returns the GigaNet cLAN-like cost model (hardware doorbells,
// interrupt-based wait).
func ClanCost() CostModel {
	return CostModel{
		Name:             "clan",
		PostOverhead:     300 * simnet.Nanosecond,
		PollOverhead:     60 * simnet.Nanosecond,
		HostCopyPerByte:  simnet.Duration(1), // ~1 GB/s host copy
		NicTxBase:        2500 * simnet.Nanosecond,
		NicTxPerVI:       0,
		NicRxBase:        2500 * simnet.Nanosecond,
		NicRxPerVI:       0,
		CreateViCost:     40 * simnet.Microsecond,
		ConnectLocalCost: 180 * simnet.Microsecond,
		ConnectProcCost:  60 * simnet.Microsecond,
		WaitIsSpin:       false,
		// A blocking VipRecvWait on cLAN sleeps on an interrupt; waking
		// costs the interrupt path plus a reschedule. The wakeup penalty
		// exceeds the 100-poll spin budget, so one blocked process pushes
		// its partners' waits past their budgets too — the self-sustaining
		// effect behind the paper's "spinwait is no good for barrier
		// operation", while waits that fit the budget (small-message
		// pingpong) never pay anything.
		WaitWakeup:       32 * simnet.Microsecond,
		SpinPollCost:     200 * simnet.Nanosecond,
		DefaultSpinCount: 100,
		MaxVIsPerPort:    1024,
		MaxPinnedBytes:   512 << 20,
		MTU:              65536,
		FrameHeaderBytes: 32,
	}
}

// BviaCost returns the Berkeley VIA-on-Myrinet-like cost model (firmware
// doorbell polling: per-message cost grows with open VIs; wait is a spin).
func BviaCost() CostModel {
	return CostModel{
		Name:             "bvia",
		PostOverhead:     500 * simnet.Nanosecond,
		PollOverhead:     80 * simnet.Nanosecond,
		HostCopyPerByte:  simnet.Duration(1),
		NicTxBase:        9 * simnet.Microsecond,
		NicTxPerVI:       500 * simnet.Nanosecond,
		NicRxBase:        9 * simnet.Microsecond,
		NicRxPerVI:       500 * simnet.Nanosecond,
		CreateViCost:     60 * simnet.Microsecond,
		ConnectLocalCost: 250 * simnet.Microsecond,
		ConnectProcCost:  80 * simnet.Microsecond,
		WaitIsSpin:       true,
		WaitWakeup:       0,
		SpinPollCost:     250 * simnet.Nanosecond,
		DefaultSpinCount: 100,
		MaxVIsPerPort:    256,
		MaxPinnedBytes:   256 << 20,
		MTU:              32768,
		FrameHeaderBytes: 40,
	}
}

// IbCost returns a 2002-era InfiniBand (Mellanox InfiniHost 4x) cost model.
// The paper's conclusion argues the connection-scalability problem carries
// over to InfiniBand — queue pairs play the role of VIs, with hardware
// doorbells (no per-QP scan cost) but the same per-connection OS setup and
// per-QP pinned receive buffering. This personality exists to demonstrate
// that claim (the ext-ib experiment).
func IbCost() CostModel {
	return CostModel{
		Name:             "ib",
		PostOverhead:     150 * simnet.Nanosecond,
		PollOverhead:     40 * simnet.Nanosecond,
		HostCopyPerByte:  simnet.Duration(1) / 2,
		NicTxBase:        1500 * simnet.Nanosecond,
		NicTxPerVI:       0,
		NicRxBase:        1500 * simnet.Nanosecond,
		NicRxPerVI:       0,
		CreateViCost:     30 * simnet.Microsecond,
		ConnectLocalCost: 130 * simnet.Microsecond,
		ConnectProcCost:  45 * simnet.Microsecond,
		WaitIsSpin:       false,
		WaitWakeup:       20 * simnet.Microsecond,
		SpinPollCost:     150 * simnet.Nanosecond,
		DefaultSpinCount: 100,
		MaxVIsPerPort:    16384,
		MaxPinnedBytes:   1 << 30,
		MTU:              65536,
		FrameHeaderBytes: 48,
	}
}

// IbFabric returns the fabric configuration for the InfiniBand personality:
// 4x links (~700 MB/s effective), sub-microsecond switch hops.
func IbFabric(nodes, procsPerNode int) fabric.Config {
	return fabric.Config{
		Nodes:           nodes,
		ProcsPerNode:    procsPerNode,
		BandwidthBps:    700e6,
		WireLatency:     600 * simnet.Nanosecond,
		SwitchLatency:   200 * simnet.Nanosecond,
		SameNodeLatency: 900 * simnet.Nanosecond,
		MgmtLatency:     120 * simnet.Microsecond,
	}
}

// ClanFabric returns the fabric configuration matching the paper's cLAN
// testbed shape: cLAN5300 switch, ~110 MB/s links.
func ClanFabric(nodes, procsPerNode int) fabric.Config {
	return fabric.Config{
		Nodes:           nodes,
		ProcsPerNode:    procsPerNode,
		BandwidthBps:    113e6,
		WireLatency:     1200 * simnet.Nanosecond,
		SwitchLatency:   500 * simnet.Nanosecond,
		SameNodeLatency: 1500 * simnet.Nanosecond,
		MgmtLatency:     120 * simnet.Microsecond,
	}
}

// BviaFabric returns the fabric configuration for the Myrinet/LANai 7 side:
// fast wires, NIC-limited bandwidth.
func BviaFabric(nodes, procsPerNode int) fabric.Config {
	return fabric.Config{
		Nodes:           nodes,
		ProcsPerNode:    procsPerNode,
		BandwidthBps:    72e6,
		WireLatency:     900 * simnet.Nanosecond,
		SwitchLatency:   400 * simnet.Nanosecond,
		SameNodeLatency: 1500 * simnet.Nanosecond,
		MgmtLatency:     120 * simnet.Microsecond,
	}
}

// SpinBudget returns the virtual time a spinwait burns polling before it
// falls back to a blocking wait.
func (c CostModel) SpinBudget() simnet.Duration {
	return simnet.Duration(c.DefaultSpinCount) * c.SpinPollCost
}
