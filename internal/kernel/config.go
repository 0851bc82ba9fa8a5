// Package kernel assembles the simulated machine and operating system:
// physical memory, disks, the paging and releaser daemons, a CPU
// scheduler, and the process/thread abstraction with per-bucket time
// accounting that the paper's Figure 7 breakdowns are built from.
package kernel

import (
	"fmt"

	"memhogs/internal/disk"
	"memhogs/internal/pageout"
	"memhogs/internal/pdpm"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// Config describes the machine and OS tunables. DefaultConfig matches
// the paper's Table 1 platform (SGI Origin 200, IRIX 6.5).
type Config struct {
	// Machine (Table 1).
	NCPU         int      // processors
	CPUMHz       int      // informational; per-iteration work is set by workloads
	CPUQuantum   sim.Time // scheduler time slice
	PageSize     int      // bytes per page (IRIX on Origin: 16 KB)
	UserMemPages int      // physical pages available to user programs (~75 MB)

	// Nodes shards physical memory into that many NUMA regions, each
	// with its own free list, paging daemon, and releaser, plus an
	// inter-node balancer. 0 or 1 selects the paper's single-node
	// machine (byte-identical to the pre-sharding simulator).
	Nodes int

	// VM tunables. They are the only copy of the free-memory
	// thresholds: NewSystem derives the paging daemons' MinFree and
	// TargetFree from them, and AttachPM the PM's MinFree.
	MinFreePages    int // min_freemem: daemon wakes below this
	TargetFreePages int // desfree: daemon steals until free reaches this

	// Far configures the optional far-memory tier between DRAM and
	// swap. The zero value (Pages == 0) disables it entirely: no tier
	// is built, no demotions happen, and runs are byte-identical to the
	// pre-tiering simulator.
	Far FarConfig

	// Disk subsystem (ten Cheetah 4LP disks, five SCSI adapters).
	Disk disk.Config

	// Fault-path costs. NewSystem overwrites VM.FarLatency and
	// VM.FarCPU (from Far.Latency and Far.CPU).
	VM vm.Params

	// Daemon costs. NewSystem overwrites Daemon.MinFree and
	// Daemon.TargetFree (from MinFreePages and TargetFreePages) and
	// Releaser.FarMinPrio (from Far.MinPrio).
	Daemon   pageout.DaemonConfig
	Releaser pageout.ReleaserConfig

	// PagingDirected PM syscall costs. AttachPM overwrites PM.MinFree
	// (from MinFreePages) and PM.MaxRSS (from its argument).
	PM pdpm.Config

	// UserFlush is the threshold at which accumulated user compute is
	// turned into scheduled CPU time; it bounds the timing skew of the
	// batching optimization.
	UserFlush sim.Time

	Seed uint64
}

// FarConfig sizes and prices the CXL-like far-memory tier: byte
// addressable, a fixed device latency with no positioning cost, and an
// eq. 2 priority threshold deciding which released pages earn a slot
// in it instead of going to swap.
type FarConfig struct {
	Pages   int      // far-tier capacity in pages; 0 disables the tier
	Latency sim.Time // fixed promote latency (no positioning cost)
	CPU     sim.Time // CPU cost of a far fault's bookkeeping
	MinPrio int      // releases with priority >= MinPrio demote to far, below go to swap
}

// DefaultConfig returns the paper's experimental platform (Table 1):
// a 4-processor SGI Origin 200 with roughly 75 MB available to user
// programs, 16 KB pages, and swap striped over ten disks behind five
// SCSI adapters.
func DefaultConfig() Config {
	return Config{
		NCPU:         4,
		CPUMHz:       225,
		CPUQuantum:   10 * sim.Millisecond,
		PageSize:     16 << 10,
		UserMemPages: 75 << 20 >> 14, // 75 MB of 16 KB pages = 4800

		MinFreePages:    64,  // 1 MB
		TargetFreePages: 256, // 4 MB

		Disk: disk.Config{
			NumDisks:     10,
			NumAdapters:  5,
			PosTimeMin:   4 * sim.Millisecond,
			PosTimeMax:   9 * sim.Millisecond,
			SeqPosTime:   600 * sim.Microsecond,
			TransferTime: 900 * sim.Microsecond, // 16 KB at ~17 MB/s
		},

		VM: vm.Params{
			SoftFaultTime: 30 * sim.Microsecond,
			RescueTime:    80 * sim.Microsecond,
			HardFaultCPU:  200 * sim.Microsecond,
			PageoutCPU:    60 * sim.Microsecond,
			Readahead:     8, // IRIX swap klustering
		},

		Daemon: pageout.DaemonConfig{
			PerPage: 6 * sim.Microsecond,
			Batch:   256,
		},
		Releaser: pageout.ReleaserConfig{
			PerPage: 2 * sim.Microsecond,
			Batch:   32,
		},

		PM: pdpm.Config{
			PrefetchCall: 20 * sim.Microsecond,
			ReleaseCall:  15 * sim.Microsecond,
		},

		UserFlush: 500 * sim.Microsecond,
		Seed:      1,

		// Far latencies are pre-set so enabling the tier is just
		// setting Pages: ~25 us device reads sit between DRAM and the
		// millisecond disk path, and MinPrio 1 sends only the lowest
		// reuse class (priority 0) straight to swap.
		Far: FarConfig{
			Latency: 25 * sim.Microsecond,
			CPU:     5 * sim.Microsecond,
			MinPrio: 1,
		},
	}
}

// TestConfig returns a scaled-down machine (a few MB of memory, two
// disks) for fast unit tests and testing.B benchmarks.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.UserMemPages = 256 // 4 MB
	cfg.MinFreePages = 8
	cfg.TargetFreePages = 24
	cfg.Disk.NumDisks = 2
	cfg.Disk.NumAdapters = 1
	return cfg
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.NCPU <= 0:
		return fmt.Errorf("kernel: NCPU must be positive, got %d", c.NCPU)
	case c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("kernel: PageSize must be a positive power of two, got %d", c.PageSize)
	case c.UserMemPages <= 0:
		return fmt.Errorf("kernel: UserMemPages must be positive, got %d", c.UserMemPages)
	case c.Nodes < 0 || c.Nodes > c.UserMemPages:
		return fmt.Errorf("kernel: Nodes %d out of range", c.Nodes)
	case c.MinFreePages < 0 || c.MinFreePages >= c.UserMemPages:
		return fmt.Errorf("kernel: MinFreePages %d out of range", c.MinFreePages)
	case c.TargetFreePages < c.MinFreePages:
		return fmt.Errorf("kernel: TargetFreePages %d below MinFreePages %d", c.TargetFreePages, c.MinFreePages)
	case c.Disk.NumDisks <= 0:
		return fmt.Errorf("kernel: NumDisks must be positive, got %d", c.Disk.NumDisks)
	case c.CPUQuantum <= 0:
		return fmt.Errorf("kernel: CPUQuantum must be positive")
	case c.Far.Pages < 0:
		return fmt.Errorf("kernel: Far.Pages must be non-negative, got %d", c.Far.Pages)
	case c.Far.Pages > 0 && (c.Far.Latency < 0 || c.Far.CPU < 0 || c.Far.MinPrio < 0):
		return fmt.Errorf("kernel: far-tier latencies and MinPrio must be non-negative")
	}
	return nil
}

// MemBytes returns user-available physical memory in bytes.
func (c Config) MemBytes() int64 {
	return int64(c.UserMemPages) * int64(c.PageSize)
}

// PagesFor returns the number of pages covering n bytes.
func (c Config) PagesFor(bytes int64) int {
	ps := int64(c.PageSize)
	return int((bytes + ps - 1) / ps)
}
