//! Named models behind atomic hot-swap publication.
//!
//! The registry maps names to [`Arc<PublishedModel>`] snapshots. A read
//! clones the `Arc` (cheap, no model copy) and then serves from an
//! immutable snapshot for as long as it likes; a publish swaps the map
//! entry to a fresh `Arc`, never mutating the one in-flight readers
//! hold. That is the HOGWILD! reader discipline applied to publication:
//! writers never block readers, readers never see a half-written model.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use sgd_core::{EpochMetrics, EpochObserver};
use sgd_linalg::Scalar;

use crate::checkpoint::Checkpoint;
use crate::model::{ServableModel, TaskDescriptor};

/// One published snapshot: an immutable model plus its provenance.
#[derive(Clone, Debug)]
pub struct PublishedModel {
    /// The servable model.
    pub model: ServableModel,
    /// Epoch of the training run that produced it (0 for out-of-band
    /// publications such as a checkpoint loaded from disk).
    pub epoch: usize,
    /// Training loss at publication time (`NAN` when unknown).
    pub loss: f64,
    /// Monotone registry-wide revision: later publications compare
    /// greater, across all names.
    pub revision: u64,
}

/// The registry's write-locked state. The revision counter lives under
/// the same lock as the map so a revision is assigned and its snapshot
/// inserted in one critical section — readers can never resolve revision
/// `n+1` before `n` exists.
#[derive(Debug, Default)]
struct RegistryState {
    models: BTreeMap<String, Arc<PublishedModel>>,
    next_revision: u64,
}

/// A registry of named models with atomic hot-swap publication.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    state: RwLock<RegistryState>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Publishes `model` under `name`, replacing any previous snapshot
    /// atomically. Readers that already resolved the old `Arc` keep
    /// serving the old snapshot. Returns the assigned revision.
    pub fn publish(&self, name: &str, model: ServableModel, epoch: usize, loss: f64) -> u64 {
        let mut st = write_lock(&self.state);
        st.next_revision += 1;
        let revision = st.next_revision;
        let snap = Arc::new(PublishedModel { model, epoch, loss, revision });
        st.models.insert(name.to_string(), snap);
        revision
    }

    /// Resolves the current snapshot for `name`.
    pub fn get(&self, name: &str) -> Option<Arc<PublishedModel>> {
        read_lock(&self.state).models.get(name).cloned()
    }

    /// Removes `name`; in-flight readers keep their snapshot.
    pub fn remove(&self, name: &str) -> Option<Arc<PublishedModel>> {
        write_lock(&self.state).models.remove(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        read_lock(&self.state).models.keys().cloned().collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        read_lock(&self.state).models.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Read-locks tolerating poisoning: a panicking publisher must not take
/// the serving path down with it (same policy as `sgd_linalg::pool`).
fn read_lock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_lock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The supervisor hook: an [`EpochObserver`] that turns every
/// best-so-far improvement of a training run into a registry
/// publication, so serving hot-swaps to the freshest model at epoch
/// boundaries while the run continues.
///
/// Pass it to [`sgd_core::Engine::run_observed`]; the engine calls
/// [`EpochObserver::on_best_model`] whenever an epoch improves on the
/// best finite loss so far.
pub struct CheckpointPublisher<'a> {
    registry: &'a ModelRegistry,
    name: String,
    descriptor: TaskDescriptor,
    directory: Option<std::path::PathBuf>,
    /// Publications performed so far.
    pub published: usize,
    /// Last error from a descriptor/weights mismatch or checkpoint
    /// write, kept instead of panicking inside the training loop.
    pub last_error: Option<String>,
}

impl<'a> CheckpointPublisher<'a> {
    /// A publisher that publishes improvements of a run under `name`.
    /// `descriptor` must describe the task being trained.
    pub fn new(registry: &'a ModelRegistry, name: &str, descriptor: TaskDescriptor) -> Self {
        CheckpointPublisher {
            registry,
            name: name.to_string(),
            descriptor,
            directory: None,
            published: 0,
            last_error: None,
        }
    }

    /// Additionally persists each published snapshot to
    /// `<dir>/<name>.ckpt` (the durable half of publication).
    pub fn with_directory(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.directory = Some(dir.into());
        self
    }
}

impl EpochObserver for CheckpointPublisher<'_> {
    fn on_epoch(&mut self, _m: &EpochMetrics) {}

    fn on_best_model(&mut self, epoch: usize, loss: f64, model: &[Scalar]) {
        let ck = match Checkpoint::new(self.descriptor.clone(), model.to_vec()) {
            Ok(ck) => ck,
            Err(e) => {
                self.last_error = Some(e.to_string());
                return;
            }
        };
        let servable = match ServableModel::from_checkpoint(&ck) {
            Ok(m) => m,
            Err(e) => {
                self.last_error = Some(e.to_string());
                return;
            }
        };
        if let Some(dir) = &self.directory {
            let path = dir.join(format!("{}.ckpt", self.name));
            if let Err(e) = ck.save(&path) {
                self.last_error = Some(e.to_string());
            }
        }
        self.registry.publish(&self.name, servable, epoch, loss);
        self.published += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model(bias: Scalar) -> ServableModel {
        let ck = Checkpoint::new(
            TaskDescriptor::LogisticRegression { dim: 3 },
            vec![bias, 2.0 * bias, -bias],
        )
        .expect("dims");
        ServableModel::from_checkpoint(&ck).expect("valid")
    }

    #[test]
    fn publish_and_get_round_trip() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.get("lr").is_none());
        let r1 = reg.publish("lr", toy_model(1.0), 3, 0.5);
        let snap = reg.get("lr").expect("published");
        assert_eq!(snap.revision, r1);
        assert_eq!(snap.epoch, 3);
        assert_eq!(reg.names(), vec!["lr".to_string()]);
    }

    #[test]
    fn hot_swap_leaves_old_readers_untouched() {
        let reg = ModelRegistry::new();
        reg.publish("m", toy_model(1.0), 1, 0.9);
        let old = reg.get("m").expect("first");
        let r2 = reg.publish("m", toy_model(7.0), 2, 0.4);
        // The reader's snapshot is unchanged; a fresh resolve sees v2.
        assert_eq!(old.model.weights(), &[1.0, 2.0, -1.0]);
        let new = reg.get("m").expect("second");
        assert_eq!(new.revision, r2);
        assert!(new.revision > old.revision);
        assert_eq!(new.model.weights(), &[7.0, 14.0, -7.0]);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn revisions_are_monotone_across_names() {
        let reg = ModelRegistry::new();
        let a = reg.publish("a", toy_model(1.0), 1, 0.9);
        let b = reg.publish("b", toy_model(2.0), 1, 0.8);
        let c = reg.publish("a", toy_model(3.0), 2, 0.7);
        assert!(a < b && b < c);
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
        reg.remove("a");
        assert_eq!(reg.names(), vec!["b".to_string()]);
    }

    #[test]
    fn publisher_publishes_improvements_only() {
        let reg = ModelRegistry::new();
        let mut p = CheckpointPublisher::new(&reg, "run", TaskDescriptor::LinearSvm { dim: 2 });
        p.on_best_model(1, 0.8, &[0.1, 0.2]);
        p.on_best_model(4, 0.3, &[0.5, 0.6]);
        assert_eq!(p.published, 2);
        assert!(p.last_error.is_none());
        let snap = reg.get("run").expect("published");
        assert_eq!(snap.epoch, 4);
        assert_eq!(snap.model.weights(), &[0.5, 0.6]);
    }

    #[test]
    fn publisher_records_mismatch_instead_of_panicking() {
        let reg = ModelRegistry::new();
        let mut p = CheckpointPublisher::new(&reg, "run", TaskDescriptor::LinearSvm { dim: 5 });
        p.on_best_model(1, 0.8, &[0.1, 0.2]); // wrong width
        assert_eq!(p.published, 0);
        assert!(p.last_error.is_some());
        assert!(reg.get("run").is_none());
    }

    #[test]
    fn publisher_persists_to_directory() {
        let dir = std::env::temp_dir().join("sgd-serve-registry-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let reg = ModelRegistry::new();
        let mut p = CheckpointPublisher::new(&reg, "durable", TaskDescriptor::LinearSvm { dim: 2 })
            .with_directory(&dir);
        p.on_best_model(2, 0.5, &[1.5, -2.5]);
        let path = dir.join("durable.ckpt");
        let ck = Checkpoint::load(&path).expect("written checkpoint loads");
        assert_eq!(ck.weights, vec![1.5, -2.5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hot_swap_publication_proceeds_while_the_server_sheds() {
        use crate::admission::{
            run_admitted, AdmissionPolicy, ClosedClients, ComputeService, OfferedRequest,
        };
        use crate::batcher::{BatchPolicy, ServeBackend, Server};
        use crate::loadgen::RequestPool;
        use sgd_linalg::Matrix;

        let reg = ModelRegistry::new();
        reg.publish("m", toy_model(1.0), 0, 1.0);
        let snap = reg.get("m").expect("published");
        let (counts, final_rev) = std::thread::scope(|s| {
            // A publisher hot-swapping revisions as fast as it can...
            let publisher = s.spawn(|| {
                let mut last = 0;
                for i in 0..50 {
                    last = reg.publish("m", toy_model(i as Scalar + 2.0), i, 0.5);
                }
                last
            });
            // ...while this thread serves an overload burst from its
            // resolved snapshot, shedding most of it. Neither side
            // blocks the other: the reader owns an immutable Arc.
            let pool = RequestPool::dense(Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]));
            let mut srv = Server::new(ServeBackend::CpuSeq);
            let mut svc = ComputeService::new(&mut srv, &snap.model, &pool);
            let open: Vec<OfferedRequest> =
                (0..64).map(|i| OfferedRequest { arrival: 0.0, priority: 0, row: i }).collect();
            let out = run_admitted(
                &mut svc,
                &BatchPolicy::unbatched(),
                &AdmissionPolicy::new(4, usize::MAX, f64::INFINITY, 1),
                &open,
                &ClosedClients::none(),
            );
            (out.counts, publisher.join().expect("publisher lives"))
        });
        assert_eq!(counts.offered(), 64, "every request resolved during the swap storm");
        assert!(counts.completed > 0 && counts.shed_admission > 0);
        // The serving snapshot never moved; the registry did.
        assert_eq!(snap.model.weights(), &[1.0, 2.0, -1.0]);
        let fresh = reg.get("m").expect("still published");
        assert_eq!(fresh.revision, final_rev);
        assert_eq!(fresh.model.weights(), &[51.0, 102.0, -51.0]);
    }

    #[test]
    fn poisoned_lock_from_a_panicking_scorer_does_not_take_serving_down() {
        let reg = ModelRegistry::new();
        reg.publish("m", toy_model(1.0), 0, 1.0);
        // A scoring thread panics while holding the registry's write
        // lock (the worst case: mid-publish), poisoning it.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = reg.state.write().expect("not yet poisoned");
            panic!("scoring thread dies mid-request");
        }));
        assert!(died.is_err(), "the panic fired");
        assert!(reg.state.is_poisoned(), "the lock really is poisoned");
        // Reads and publishes keep working through the poison.
        assert_eq!(reg.get("m").expect("read survives").model.weights(), &[1.0, 2.0, -1.0]);
        let r2 = reg.publish("m", toy_model(3.0), 1, 0.2);
        assert_eq!(reg.get("m").expect("publish survives").revision, r2);
        assert_eq!(reg.names(), vec!["m".to_string()]);
    }

    #[test]
    fn concurrent_reads_and_publishes_stay_consistent() {
        let reg = ModelRegistry::new();
        reg.publish("m", toy_model(1.0), 0, 1.0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..200 {
                    reg.publish("m", toy_model(i as Scalar + 2.0), i, 1.0 / (i + 1) as f64);
                }
            });
            for _ in 0..4 {
                s.spawn(|| {
                    let mut last = 0;
                    for _ in 0..500 {
                        let snap = reg.get("m").expect("always present");
                        // Snapshots are internally consistent and
                        // revisions never run backwards for a reader.
                        let w = snap.model.weights();
                        assert_eq!(w.len(), 3);
                        assert_eq!(w.get(1).copied(), w.first().map(|v| 2.0 * v));
                        assert!(snap.revision >= last);
                        last = snap.revision;
                    }
                });
            }
        });
        assert_eq!(reg.get("m").expect("final").model.weights(), &[201.0, 402.0, -201.0]);
    }
}
