//! `sgd-serve`: the inference-side mirror of the training engine.
//!
//! Training in this repo ends with a [`sgd_core::RunReport`] carrying a
//! `best_model`; this crate is everything after that moment, in four
//! pieces that mirror the paper's hardware-efficiency axes at serving
//! time:
//!
//! - [`checkpoint`]: a versioned, CRC-checked binary format that
//!   round-trips `f64` weights bit-exactly and turns every corrupt,
//!   truncated, or mismatched file into a typed [`CheckpointError`] —
//!   parsing untrusted bytes never panics.
//! - [`registry`]: named models behind atomic `Arc` hot-swap, plus an
//!   [`EpochObserver`](sgd_core::EpochObserver) hook so a live training
//!   run publishes its best-so-far snapshot at epoch boundaries while
//!   requests keep scoring against the previous one (the lock-free
//!   reader discipline of HOGWILD!, applied to publication).
//! - [`batcher`]: a request micro-batcher — admission queue, max-batch /
//!   max-wait policy, batched dispatch through the same gemv/spmv
//!   kernels training uses, on cpu-seq, cpu-par (persistent pool), or
//!   the simulated GPU. Dense BLAS batches amortize dispatch overhead
//!   exactly as the paper's synchronous SGD amortizes kernel launches.
//! - [`admission`]: overload hardening for the batcher — bounded
//!   per-tier queues, backpressure, deadlines — where every offered
//!   request deterministically resolves to a typed [`RequestOutcome`]
//!   (completed, shed, or rejected; never a silent drop).
//! - [`loadgen`]: deterministic open- and closed-loop load generation
//!   with p50/p95/p99/p999 + throughput/goodput accounting, feeding the
//!   `serve` and `soak` benches.
//! - [`framing`]: [`framing::LineServer`], the one accept loop, bounded
//!   line reader and reply writer behind both wire protocols, with read
//!   timeouts and a prebuilt line-too-long reply.
//! - [`wire`]: an optional `std::net` loopback TCP front-end speaking
//!   LIBSVM-formatted lines through `sgd-datagen`'s typed parser, with an
//!   in-flight bound answering `ERR BUSY retry_after=`.

#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod checkpoint;
pub mod framing;
pub mod loadgen;
pub mod model;
pub mod registry;
pub mod stats;
pub mod wire;

pub use admission::{
    run_admitted, AdmissionPolicy, BatchService, ClosedClients, ComputeService, ModeledService,
    OfferedRequest, OutcomeCounts, RequestOutcome,
};
pub use batcher::{predict_workload, BatchPolicy, ServeBackend, ServeOutcome, Server};
pub use checkpoint::{Checkpoint, CheckpointError, FORMAT_VERSION, MAGIC};
pub use loadgen::{offered_requests, AssembledBatch, RequestPool};
pub use model::{ServableModel, TaskDescriptor};
pub use registry::{CheckpointPublisher, ModelRegistry, PublishedModel};
pub use stats::LatencySummary;
pub use wire::{WireClient, WireConfig, WireServer};
