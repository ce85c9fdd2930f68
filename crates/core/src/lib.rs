//! # Kona: a coherence-based software runtime for disaggregated memory
//!
//! A from-scratch Rust reproduction of *"Rethinking Software Runtimes for
//! Disaggregated Memory"* (ASPLOS '21). Kona offers remote memory to
//! applications transparently, replacing the three virtual-memory
//! mechanisms page-based systems rely on with cache-coherence-based
//! hardware primitives:
//!
//! | operation | page-based systems | Kona |
//! |---|---|---|
//! | fetch remote data | page fault → 4 KiB fetch | cache miss → FPGA fill (`cache-remote-data`) |
//! | track dirty data | write-protect faults, 4 KiB | observed writebacks, 64 B (`track-local-data`) |
//! | evict cached data | unmap + TLB shootdown + full-page RDMA | cache-line log of dirty lines only |
//!
//! The unavailable hardware (a cache-coherent FPGA and an RDMA testbed) is
//! simulated by the substrate crates (`kona-fpga`, `kona-coherence`,
//! `kona-net`); this crate implements the *software runtime* on top:
//!
//! * [`Controller`] — the rack controller allocating coarse slabs across
//!   memory nodes.
//! * [`SlabAllocator`] — KLib's AllocLib, interposing on allocations and
//!   carving fine-grained objects out of pre-allocated slabs.
//! * [`CacheLineLog`] / [`LogReceiver`] — the FaRM-style ring-buffer log
//!   that ships aggregated dirty cache lines, and the remote thread that
//!   unpacks them.
//! * [`EvictionHandler`] — writes only dirty lines back, with optional
//!   replication (§4.5).
//! * [`KonaRuntime`] — the coherence-based runtime (the paper's
//!   contribution).
//! * [`VmRuntime`] — the page-fault baseline (Kona-VM; with profiles
//!   reproducing Infiniswap's and LegoOS's measured latencies).
//!
//! Both runtimes implement [`RemoteMemoryRuntime`], use the *same* eviction
//! policy, and are driven by the same traces, so measured differences come
//! from the mechanism — exactly the paper's §6.1 methodology.
//!
//! # Examples
//!
//! ```
//! use kona::{ClusterConfig, KonaRuntime, RemoteMemoryRuntime};
//! use kona_types::{AccessKind, MemAccess};
//!
//! let mut rt = KonaRuntime::new(ClusterConfig::small()).unwrap();
//! let base = rt.allocate(1 << 16).unwrap();
//! rt.write_bytes(base, b"hello disaggregated world").unwrap();
//! let mut buf = [0u8; 25];
//! rt.read_bytes(base, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello disaggregated world");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod config;
mod controller;
mod eviction;
mod failure;
mod log;
pub mod metrics;
mod poller;
mod runtime;
pub mod shard;
mod stats;
mod vm_runtime;

pub use alloc::SlabAllocator;
pub use config::{ClusterConfig, DataMode, DegradedConfig, LatencyProfile, PlacementKind, RetryPolicy};
pub use controller::{
    CapacityWeighted, Controller, NodeOccupancy, PlacementPolicy, PowerOfTwoChoices, RoundRobin,
    SlabGrant,
};
pub use eviction::{CopyEngine, EvictionBreakdown, EvictionHandler, EvictionStats};
pub use failure::{FailurePolicy, FailureState, McEvent, PolicyCounts};
pub use log::{CacheLineLog, LogEntry, LogReceiver, ReceiverReport, ShipmentBatch};
pub use poller::Poller;
pub use runtime::{KonaRuntime, RemoteMemoryRuntime};
pub use shard::{
    line_stream, seeded_script, OpOutcome, OpTally, ReferenceMemory, ShardOp, ShardReport,
    ShardedRun, ShipmentDigest,
};
pub use stats::RuntimeStats;
pub use vm_runtime::{VmProfile, VmRuntime};
