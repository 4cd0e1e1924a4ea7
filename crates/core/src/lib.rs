//! Cycle-level simulator of single-cluster and multicluster
//! dynamically-scheduled processors.
//!
//! This crate is the reproduction of the paper's hardware model
//! (Sections 2 and 4.1):
//!
//! - [`config`] — processor configurations, with presets matching the
//!   paper's evaluated single-cluster (8-way) and dual-cluster
//!   (2 × 4-way) machines;
//! - [`dist`] — instruction distribution: which cluster(s) an
//!   instruction executes on, derived from the architectural registers
//!   it names, including master/slave selection and the five execution
//!   scenarios of Section 2.1;
//! - [`sim`] — the simulator itself: fetch (12-wide, instruction cache,
//!   McFarling prediction with update-at-execute), in-order distribution
//!   with renaming and resource stalls, per-cluster dispatch queues with
//!   greedy oldest-first issue under the Table 1 rules, operand/result
//!   transfer buffers, suspended slave copies, instruction-replay
//!   exceptions, non-blocking memory via the inverted-MSHR data cache,
//!   and 8-wide in-order retire;
//! - [`events`] — the per-instruction event log, a [`Probe`] that
//!   records the paper's Figures 2–5 timelines;
//! - [`stats`] — run statistics ([`SimStats::cycles`] is the paper's
//!   metric) and the Table 2 speedup convention;
//! - [`delay`] — the Palacharla-derived cycle-time model behind the
//!   paper's 0.35 µm / 0.18 µm crossover analysis;
//! - [`check`] — the architectural invariant checker: per-cluster
//!   resource accounting, waiter/completion liveness, and replay
//!   forward progress, validated at retire or cycle granularity;
//! - [`obs`] — the observability layer: [`Probe`] hook points compiled
//!   out on the default [`obs::NullProbe`] path, plus the interval
//!   sampler / latency histograms / lifecycle event ring behind
//!   `repro --obs`;
//! - [`timeq`] — the time-wheel event queue the simulator schedules
//!   future work on, and uses to fast-forward across dead cycles;
//! - [`watchdog`] — the cooperative hard-watchdog deadline token the
//!   run loop polls, turning runaway cells into structured
//!   [`SimError::Timeout`] reports.
//!
//! # Example
//!
//! ```
//! use mcl_core::{Processor, ProcessorConfig};
//! use mcl_isa::ArchReg;
//! use mcl_trace::ProgramBuilder;
//!
//! // A two-instruction cross-cluster dependence: r3 (cluster 1) is
//! // computed from r2 (cluster 0) — dual distribution on the paper's
//! // dual-cluster machine.
//! let mut b = ProgramBuilder::<ArchReg>::new("cross");
//! b.lda(ArchReg::int(2), 1);
//! b.addq_imm(ArchReg::int(3), ArchReg::int(2), 1);
//! let program = b.finish()?;
//!
//! let result = Processor::new(ProcessorConfig::dual_cluster_8way())
//!     .run_program(&program)?;
//! assert_eq!(result.stats.dual_distributed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod check;
pub mod config;
pub mod delay;
pub mod dist;
pub mod events;
pub mod obs;
pub mod pipeview;
pub mod sim;
pub mod stats;
pub mod timeq;
pub mod watchdog;

pub use check::{CheckLevel, FaultInjection};
pub use config::ProcessorConfig;
pub use delay::FeatureSize;
pub use dist::{distribute, Distribution};
pub use events::{Event, EventKind, EventLog};
pub use obs::{
    CritAttribution, CritCause, CritPathProbe, CycleSnapshot, DataflowEdge, FlushedOp, Histogram,
    HostPhase, HostProf, HostProfReport, IntervalSampler, NullHostProf, ObsConfig, ObsProbe,
    OpLifecycle, PhaseProf, PipeTrace, PipeTraceProbe, Probe, StallCause, TransferKind,
    WorkCounter,
};
pub use pipeview::{render as render_pipeline, PipeViewOptions};
pub use sim::{Processor, SimError, SimResult};
pub use stats::{speedup_percent, FastForward, SimStats, STATS_WIRE_VERSION};
