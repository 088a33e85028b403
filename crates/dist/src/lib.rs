//! Parameter-server scale-out with elastic workers.
//!
//! The single-node study answers the paper's question for one machine;
//! this crate scales the same strategies *out*: a [`ParamServer`] holds
//! the authoritative, versioned model, and N workers pull it, compute
//! minibatch gradients over leased data shards through the shared
//! `ComputeBackend` kernel vocabulary, and push version-tagged gradients
//! back. Two consistency modes mirror the paper's sync/async axis at
//! cluster scale:
//!
//! * **Sync** (ElasticDL-style): the server accumulates gradients tagged
//!   with the current model version and applies their average once
//!   `grads_to_wait` fresh ones arrived; a gradient computed against a
//!   superseded version is rejected and the worker recomputes against
//!   the fresh model.
//! * **Async** (parameter-server HOGWILD!): every gradient applies
//!   immediately, subject to a `max_staleness` bound — beyond it the
//!   push is rejected or down-weighted by `1/(1 + staleness)`,
//!   configurable.
//!
//! Elastic membership is the headline: workers join, leave, die, and
//! rejoin mid-run, driven by the same `sgd-core` [`sgd_core::FaultPlan`]
//! as the single-node fault experiments. A dead worker's outstanding
//! shard leases return to the pool and are reassigned; a joining worker
//! pulls the current model and starts leasing. The sync quorum is
//! elastic too: the server waits for `min(grads_to_wait, live workers)`
//! gradients, so a shrunken cluster keeps making progress.
//!
//! Two transports sit behind one [`Transport`] trait: the in-process
//! one drives the deterministic modeled-time cluster
//! ([`run_dist_modeled`], bit-pinned per seed — the distributed
//! counterpart of `sgd-core`'s modeled runners), and a loopback-TCP one
//! is a handler on `sgd-serve`'s line server for a real multi-connection
//! run ([`wire::DistWireServer`]).

pub mod modeled;
pub mod server;
pub mod shard;
pub mod transport;
pub mod wire;
pub mod worker;

pub use modeled::{run_dist_modeled, DistConfig};
pub use server::{ConsistencyMode, LeaseGrant, ParamServer, PushOutcome, ServerStats, StalePolicy};
pub use shard::{make_shards, Shard};
pub use transport::{InProcTransport, Reply, Request, Transport, TransportError};
pub use wire::{run_dist_wire, DistWireClient, DistWireServer};
pub use worker::{DistWorker, GradJob};
