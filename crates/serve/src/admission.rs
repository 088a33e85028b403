//! The serving simulator: the batcher's one deterministic discrete-event
//! loop, with admission control, priority shedding, and deadline
//! enforcement in front of its queue — the serving layer's
//! graceful-degradation contract.
//!
//! A queue without bound diverges past saturation: both the queue and
//! the latency tail grow with the overload. The async-SGD literature
//! this repo reproduces is fundamentally about *bounded* degradation
//! under contention — stale or dropped work is accounted for by design,
//! never silently accumulated — and the serving layer obeys the same
//! discipline here. [`run_admitted`] simulates open- and closed-loop
//! traffic through the batcher with an [`AdmissionPolicy`] in front of
//! the queue, so every offered request resolves to exactly one typed
//! [`RequestOutcome`]:
//!
//! * [`RequestOutcome::Completed`] — admitted, served, latency recorded;
//! * [`RequestOutcome::RejectedBackpressure`] — the in-flight bound
//!   (queued + currently being served) was hit at arrival;
//! * [`RequestOutcome::ShedAtAdmission`] — the queue was over the
//!   request's priority tier's share at arrival (lower tiers shed
//!   earlier as depth grows);
//! * [`RequestOutcome::ShedDeadlineExceeded`] — admitted, but its
//!   deadline had expired by the time its batch started; it is removed
//!   without occupying a batch slot, which is what keeps the admitted
//!   tail bounded.
//!
//! Conservation is structural — `completed + shed + rejected == offered`
//! ([`OutcomeCounts::offered`]) — and the soak bench asserts it; there
//! is no silent-drop path. [`AdmissionPolicy::unbounded`] is the
//! unhardened baseline — nothing is shed — and the serve and router
//! benches run under it; the golden-pin tests in `sgd-bench` hold their
//! committed bench files byte for byte. The hardened path and the
//! baseline are the *same* simulation, differing only in policy. Same
//! seed, same offered load ⇒ bit-identical shed decisions, latencies,
//! and summaries.

use std::collections::VecDeque;

use sgd_core::{ComputeBackend, CostModel, Workload};
use sgd_linalg::Scalar;

use crate::batcher::{predict_workload, BatchPolicy, ServeOutcome, Server};
use crate::loadgen::RequestPool;
use crate::model::ServableModel;
use crate::stats::LatencySummary;

/// How one offered request resolved. Every request offered to
/// [`run_admitted`] maps to exactly one of these — there is no silent
/// drop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RequestOutcome {
    /// Served; `latency` is completion minus arrival, seconds.
    Completed {
        /// Completion minus arrival, seconds.
        latency: f64,
    },
    /// Refused at arrival: the request's priority tier was over its
    /// queue share.
    ShedAtAdmission,
    /// Admitted, but its deadline expired before its batch started.
    ShedDeadlineExceeded,
    /// Refused at arrival: the in-flight bound (queued + in service)
    /// was hit.
    RejectedBackpressure,
}

/// Tally of how a run's offered requests resolved — the conservation
/// ledger (`offered == completed + shed_admission + shed_deadline +
/// rejected`, always).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Requests served to completion.
    pub completed: usize,
    /// Requests shed at admission (tier over its queue share).
    pub shed_admission: usize,
    /// Admitted requests shed because their deadline expired before
    /// batch start.
    pub shed_deadline: usize,
    /// Requests rejected by the in-flight backpressure bound.
    pub rejected: usize,
}

impl OutcomeCounts {
    /// Every request offered to the run.
    pub fn offered(&self) -> usize {
        self.completed + self.shed_admission + self.shed_deadline + self.rejected
    }

    /// Requests that resolved without completing.
    pub fn shed_total(&self) -> usize {
        self.shed_admission + self.shed_deadline + self.rejected
    }

    fn record(&mut self, o: RequestOutcome) {
        match o {
            RequestOutcome::Completed { .. } => self.completed += 1,
            RequestOutcome::ShedAtAdmission => self.shed_admission += 1,
            RequestOutcome::ShedDeadlineExceeded => self.shed_deadline += 1,
            RequestOutcome::RejectedBackpressure => self.rejected += 1,
        }
    }
}

/// What the server will accept before it starts saying no.
///
/// `max_queue` bounds the admission queue; `max_inflight` bounds queued
/// plus in-service requests (the backpressure gate, checked first);
/// `deadline` bounds how stale an admitted request may be when its batch
/// starts; `tiers` grades `max_queue` across priorities so lower
/// priorities shed earlier as the queue fills (see
/// [`AdmissionPolicy::tier_cap`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionPolicy {
    /// Maximum queued requests (tier 0's full share).
    pub max_queue: usize,
    /// Maximum queued + in-service requests before `RejectedBackpressure`.
    pub max_inflight: usize,
    /// Seconds an admitted request may wait before its batch starts;
    /// expired requests are `ShedDeadlineExceeded` at assembly.
    pub deadline: f64,
    /// Priority tiers (>= 1). Tier 0 is highest and keeps the full
    /// `max_queue`; each lower tier's share shrinks linearly.
    pub tiers: usize,
}

impl AdmissionPolicy {
    /// A policy with the given bounds (`tiers` is clamped to >= 1,
    /// `deadline` to >= 0).
    pub fn new(max_queue: usize, max_inflight: usize, deadline: f64, tiers: usize) -> Self {
        AdmissionPolicy {
            max_queue: max_queue.max(1),
            max_inflight: max_inflight.max(1),
            deadline: deadline.max(0.0),
            tiers: tiers.max(1),
        }
    }

    /// The no-op policy: nothing is ever shed or rejected, so every
    /// offered request completes. [`run_admitted`] under this policy is
    /// the unhardened baseline the serve, router, and soak benches
    /// measure.
    pub fn unbounded() -> Self {
        AdmissionPolicy {
            max_queue: usize::MAX,
            max_inflight: usize::MAX,
            deadline: f64::INFINITY,
            tiers: 1,
        }
    }

    /// Queue depth at which requests of `priority` stop being admitted:
    /// `max_queue * (tiers - p) / tiers` for clamped priority `p`. Tier
    /// 0 keeps the whole queue; with 4 tiers, tier 3 is shed once the
    /// queue is a quarter full — graduated shedding, cheapest work
    /// first.
    pub fn tier_cap(&self, priority: usize) -> usize {
        let tiers = self.tiers.max(1) as u128;
        let p = priority.min(self.tiers.max(1) - 1) as u128;
        ((self.max_queue as u128 * (tiers - p)) / tiers) as usize
    }
}

/// One request offered by the open-loop side of a mixed scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OfferedRequest {
    /// Arrival timestamp, seconds.
    pub arrival: f64,
    /// Priority tier (0 = highest).
    pub priority: usize,
    /// Request-pool row this request scores (wraps modulo pool size).
    pub row: usize,
}

/// The closed-loop side of a mixed scenario: `clients` concurrent
/// clients each issuing `per_client` requests, re-issuing `think`
/// seconds after each *resolution* (completed or shed — a shed response
/// still answers the client, so the client keeps its cadence).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClosedClients {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests each client issues over the run.
    pub per_client: usize,
    /// Seconds between a resolution and the client's next issue.
    pub think: f64,
    /// Priority tier of every closed-loop request.
    pub priority: usize,
}

impl ClosedClients {
    /// No closed-loop traffic.
    pub fn none() -> Self {
        ClosedClients { clients: 0, per_client: 0, think: 0.0, priority: 0 }
    }
}

/// How [`run_admitted`] scores a batch: the real compute path
/// ([`ComputeService`]) or the analytic cost model alone
/// ([`ModeledService`], what makes a 10^6-request soak feasible).
pub trait BatchService {
    /// Scores one batch of pool rows: per-request decision values (may
    /// be empty for modeled services — decisions then record as NaN),
    /// service seconds, and the backend label that served it.
    fn serve(&mut self, rows: &[usize]) -> (Vec<Scalar>, f64, String);
}

/// The real serving path: assembles each batch from the pool and scores
/// it through a [`Server`] (fixed backend or router), so decisions are
/// actually computed and bit-comparable to direct predicts.
pub struct ComputeService<'a> {
    server: &'a mut Server,
    model: &'a ServableModel,
    pool: &'a RequestPool,
}

impl<'a> ComputeService<'a> {
    /// A service scoring `pool` rows against `model` on `server`.
    pub fn new(server: &'a mut Server, model: &'a ServableModel, pool: &'a RequestPool) -> Self {
        ComputeService { server, model, pool }
    }
}

impl BatchService for ComputeService<'_> {
    fn serve(&mut self, rows: &[usize]) -> (Vec<Scalar>, f64, String) {
        let batch = self.pool.assemble(rows);
        let (out, secs) = self.server.predict(self.model, &batch.examples());
        (out, secs, self.server.backend().label())
    }
}

/// A service that prices batches through the shared [`CostModel`]
/// without running the math: O(1) per batch, which is what lets the
/// soak bench push ~10^6 modeled requests through every backend and the
/// router. Batch cost is affine in batch size (`fixed + n * marginal`),
/// calibrated from [`predict_workload`] at sizes 1 and 2, so its
/// estimates agree with the modeled compute path for affine workloads
/// (dense linear models exactly; sparse models at the calibration rows'
/// density).
pub struct ModeledService {
    cost: CostModel,
    candidates: Vec<ComputeBackend>,
    fixed: Workload,
    marginal: Workload,
}

impl ModeledService {
    /// A modeled service for `model` over `pool` rows. One candidate =
    /// a fixed backend; several = the router (fastest wins per batch).
    pub fn for_predict(
        candidates: Vec<ComputeBackend>,
        model: &ServableModel,
        pool: &RequestPool,
    ) -> Self {
        let w1 = predict_workload(model, &pool.assemble(&[0]).examples());
        let w2 = predict_workload(model, &pool.assemble(&[0, 1]).examples());
        let marginal = Workload {
            flops: (w2.flops - w1.flops).max(0.0),
            bytes: (w2.bytes - w1.bytes).max(0.0),
            kernels: (w2.kernels - w1.kernels).max(0.0),
        };
        let fixed = Workload {
            flops: (w1.flops - marginal.flops).max(0.0),
            bytes: (w1.bytes - marginal.bytes).max(0.0),
            kernels: (w1.kernels - marginal.kernels).max(0.0),
        };
        // Tier-aware pricing; the ambient default (Scalar) keeps this
        // bit-identical to `CostModel::default()`.
        ModeledService {
            cost: CostModel::for_tier(sgd_linalg::pool::current_tier()),
            candidates,
            fixed,
            marginal,
        }
    }

    /// The workload this service charges for an `n`-request batch.
    pub fn batch_workload(&self, n: usize) -> Workload {
        let n = n as f64;
        Workload {
            flops: self.fixed.flops + n * self.marginal.flops,
            bytes: self.fixed.bytes + n * self.marginal.bytes,
            kernels: (self.fixed.kernels + n * self.marginal.kernels).max(1.0),
        }
    }

    /// Modeled service seconds for an `n`-request batch on the backend
    /// the route would pick.
    pub fn estimate_secs(&self, n: usize) -> f64 {
        let w = self.batch_workload(n);
        self.cost.estimate_secs(&self.pick(&w), &w)
    }

    fn pick(&self, w: &Workload) -> ComputeBackend {
        if self.candidates.len() == 1 {
            self.candidates.first().copied().unwrap_or(ComputeBackend::CpuSeq)
        } else {
            self.cost.fastest(self.candidates.iter(), w).unwrap_or(ComputeBackend::CpuSeq)
        }
    }
}

impl BatchService for ModeledService {
    fn serve(&mut self, rows: &[usize]) -> (Vec<Scalar>, f64, String) {
        let w = self.batch_workload(rows.len());
        let backend = self.pick(&w);
        (Vec::new(), self.cost.estimate_secs(&backend, &w), backend.label())
    }
}

/// One queued (admitted, not yet dispatched) request.
#[derive(Clone, Copy, Debug)]
struct QueuedRequest {
    id: usize,
    arrival: f64,
    row: usize,
    client: Option<usize>,
}

/// Per-tier FIFO queues. Each queue is in arrival order (admissions
/// happen in time order); batch assembly drains tier 0 first. All queue
/// growth funnels through [`TierQueues::admit`] — the one
/// admission-checked enqueue the analyzer's queue-discipline pass
/// allows.
struct TierQueues {
    tiers: Vec<VecDeque<QueuedRequest>>,
    len: usize,
}

impl TierQueues {
    fn new(tiers: usize) -> Self {
        TierQueues { tiers: (0..tiers.max(1)).map(|_| VecDeque::new()).collect(), len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Enqueues an already-admission-checked request. The sole growth
    /// site of the queue structures: callers must have applied the
    /// backpressure and tier-cap checks first.
    // analyzer: root(hot-path-alloc) -- admission enqueue runs per offered request; it must not allocate beyond the queue's own growth
    fn admit(&mut self, tier: usize, req: QueuedRequest) {
        if let Some(q) = self.tiers.get_mut(tier) {
            // analyzer: allow(queue-discipline) -- the one admission-checked enqueue
            q.push_back(req);
            self.len += 1;
        }
    }

    /// Arrival time of the oldest queued request.
    fn oldest_arrival(&self) -> Option<f64> {
        self.tiers.iter().filter_map(|q| q.front().map(|r| r.arrival)).min_by(|a, b| a.total_cmp(b))
    }

    /// Removes the next request in priority-then-FIFO order.
    fn pop_next(&mut self) -> Option<QueuedRequest> {
        for q in self.tiers.iter_mut() {
            if let Some(r) = q.pop_front() {
                self.len -= 1;
                return Some(r);
            }
        }
        None
    }
}

/// Where the next arrival comes from.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// `open[pos]` (input order).
    Open { pos: usize },
    /// Closed client `client`'s next issue.
    Closed { client: usize },
}

/// The next arrival across the open list and the closed clients.
/// Simultaneous arrivals order deterministically: open before closed,
/// closed clients by index.
fn next_arrival(
    open: &[OfferedRequest],
    order: &[usize],
    open_idx: usize,
    next_issue: &[f64],
) -> Option<(f64, Source)> {
    let open_next = order
        .get(open_idx)
        .and_then(|&i| open.get(i).map(|r| (r.arrival, Source::Open { pos: i })));
    let mut closed_next: Option<(f64, usize)> = None;
    for (c, &t) in next_issue.iter().enumerate() {
        if t.is_finite() && closed_next.is_none_or(|(bt, _)| t < bt) {
            closed_next = Some((t, c));
        }
    }
    match (open_next, closed_next) {
        (Some((to, s)), Some((tc, c))) => {
            if to <= tc {
                Some((to, s))
            } else {
                Some((tc, Source::Closed { client: c }))
            }
        }
        (Some(o), None) => Some(o),
        (None, Some((tc, c))) => Some((tc, Source::Closed { client: c })),
        (None, None) => None,
    }
}

/// Records `id`'s resolution exactly once.
// analyzer: root(hot-path-alloc) -- shed/reject resolution runs once per offered request, including under overload; it must stay allocation-free
fn resolve(
    outcomes: &mut [Option<RequestOutcome>],
    counts: &mut OutcomeCounts,
    id: usize,
    o: RequestOutcome,
) {
    if let Some(slot) = outcomes.get_mut(id) {
        if slot.is_none() {
            *slot = Some(o);
            counts.record(o);
        }
    }
}

/// Schedules closed client `client`'s next issue at `at` (or parks it
/// if the client has no requests left).
// analyzer: root(hot-path-alloc) -- reissue scheduling runs on every shed and completion; it must stay allocation-free
fn schedule_reissue(next_issue: &mut [f64], remaining: &[usize], client: usize, at: f64) {
    if let (Some(slot), Some(&rem)) = (next_issue.get_mut(client), remaining.get(client)) {
        *slot = if rem > 0 { at } else { f64::INFINITY };
    }
}

/// Runs a mixed open+closed workload through the admission-controlled
/// batcher as one deterministic discrete-event simulation.
///
/// Offered traffic is `open` (arbitrary order; sorted internally by
/// arrival, stable by index) plus `closed.clients * closed.per_client`
/// closed-loop requests. Request ids — the index into
/// [`ServeOutcome::outcomes`] — are open requests first (input order),
/// then closed requests in chronological issue order. The batch trigger
/// is the batcher's classic rule (`max_batch` pending, or the oldest
/// has waited `max_wait`); admission checks happen at arrival time
/// (backpressure first, then the tier cap), deadline checks at batch
/// assembly. [`ServeOutcome::latencies`] / `decisions` carry completed
/// requests only, in completion order.
pub fn run_admitted<S: BatchService>(
    service: &mut S,
    batch: &BatchPolicy,
    admission: &AdmissionPolicy,
    open: &[OfferedRequest],
    closed: &ClosedClients,
) -> ServeOutcome {
    let bmax = batch.max_batch.max(1);
    let tiers_n = admission.tiers.max(1);
    let closed_total = closed.clients * closed.per_client;
    let offered = open.len() + closed_total;

    let mut order: Vec<usize> = (0..open.len()).collect();
    order.sort_by(|&a, &b| {
        let (ta, tb) = (open.get(a).map(|r| r.arrival), open.get(b).map(|r| r.arrival));
        match (ta, tb) {
            (Some(x), Some(y)) => x.total_cmp(&y).then(a.cmp(&b)),
            _ => a.cmp(&b),
        }
    });

    let mut queues = TierQueues::new(tiers_n);
    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; offered];
    let mut counts = OutcomeCounts::default();
    let mut latencies: Vec<f64> = Vec::new();
    let mut decisions: Vec<Scalar> = Vec::new();
    let mut batches = 0usize;
    let mut max_batch_seen = 0usize;
    let mut batch_backends: Vec<String> = Vec::new();
    let mut service_secs = 0.0f64;
    let mut t_free = 0.0f64;
    let mut t_full = f64::INFINITY;
    let mut last_finish = 0.0f64;
    let mut in_service_count = 0usize;

    let issue0 = if closed.per_client > 0 { 0.0 } else { f64::INFINITY };
    let mut next_issue = vec![issue0; closed.clients];
    let mut remaining = vec![closed.per_client; closed.clients];
    let mut closed_issued = 0usize;
    let mut open_idx = 0usize;

    let first_open = order.first().and_then(|&i| open.get(i)).map(|r| r.arrival);
    let first_arrival = if closed_total > 0 { 0.0 } else { first_open.unwrap_or(0.0) };

    loop {
        let next = next_arrival(open, &order, open_idx, &next_issue);

        // Decide: admit the next arrival, or dispatch a batch at `start`.
        let start = if queues.len() > 0 {
            let t_first = queues.oldest_arrival().unwrap_or(t_free);
            let trigger = (t_first + batch.max_wait.max(0.0)).min(t_full);
            Some(t_free.max(trigger))
        } else {
            None
        };
        let admit_now = match (next, start) {
            (None, None) => break,
            (Some(_), None) => true,
            (Some((t, _)), Some(s)) => t <= s,
            (None, Some(_)) => false,
        };

        if admit_now {
            let Some((t, source)) = next else { break };
            let (id, priority, row, client) = match source {
                Source::Open { pos } => {
                    open_idx += 1;
                    match open.get(pos) {
                        Some(r) => (pos, r.priority, r.row, None),
                        None => continue,
                    }
                }
                Source::Closed { client } => {
                    let id = open.len() + closed_issued;
                    let row = closed_issued;
                    closed_issued += 1;
                    if let Some(rem) = remaining.get_mut(client) {
                        *rem = rem.saturating_sub(1);
                    }
                    if let Some(slot) = next_issue.get_mut(client) {
                        *slot = f64::INFINITY;
                    }
                    (id, closed.priority, row, Some(client))
                }
            };
            let tier = priority.min(tiers_n - 1);
            let in_service = if t < t_free { in_service_count } else { 0 };
            let verdict = if queues.len().saturating_add(in_service) >= admission.max_inflight {
                Some(RequestOutcome::RejectedBackpressure)
            } else if queues.len() >= admission.tier_cap(tier) {
                Some(RequestOutcome::ShedAtAdmission)
            } else {
                None
            };
            match verdict {
                Some(o) => {
                    resolve(&mut outcomes, &mut counts, id, o);
                    if let Some(c) = client {
                        schedule_reissue(&mut next_issue, &remaining, c, t + closed.think);
                    }
                }
                None => {
                    queues.admit(tier, QueuedRequest { id, arrival: t, row, client });
                    if queues.len() >= bmax && t_full.is_infinite() {
                        t_full = t;
                    }
                }
            }
            continue;
        }

        let Some(start) = start else { break };

        // Assemble a batch at `start`, shedding expired requests as they
        // are drained — a shed request resolves without a batch slot.
        let mut members: Vec<QueuedRequest> = Vec::with_capacity(bmax.min(queues.len()));
        while members.len() < bmax {
            let Some(r) = queues.pop_next() else { break };
            if r.arrival + admission.deadline < start {
                resolve(&mut outcomes, &mut counts, r.id, RequestOutcome::ShedDeadlineExceeded);
                if let Some(c) = r.client {
                    schedule_reissue(&mut next_issue, &remaining, c, start + closed.think);
                }
                continue;
            }
            members.push(r);
        }

        if members.is_empty() {
            // Every drained request had expired: no dispatch, the server
            // stays free. Progress is guaranteed — the shed requests left
            // the queue.
            t_full = if queues.len() >= bmax { start } else { f64::INFINITY };
            continue;
        }

        let rows: Vec<usize> = members.iter().map(|r| r.row).collect();
        let (out, secs, label) = service.serve(&rows);
        let finish = start + secs;
        for (k, r) in members.iter().enumerate() {
            let latency = finish - r.arrival;
            resolve(&mut outcomes, &mut counts, r.id, RequestOutcome::Completed { latency });
            latencies.push(latency);
            decisions.push(out.get(k).copied().unwrap_or(f64::NAN));
            if let Some(c) = r.client {
                schedule_reissue(&mut next_issue, &remaining, c, finish + closed.think);
            }
        }
        batches += 1;
        max_batch_seen = max_batch_seen.max(members.len());
        batch_backends.push(label);
        service_secs += secs;
        in_service_count = members.len();
        t_free = finish;
        last_finish = last_finish.max(finish);
        t_full = if queues.len() >= bmax { start } else { f64::INFINITY };
    }

    // Every offered request was resolved above (the loop only ends with
    // empty queues and no arrivals left); the fallback is defensive and
    // keeps `counts` the authoritative ledger.
    let outcomes: Vec<RequestOutcome> =
        outcomes.into_iter().map(|o| o.unwrap_or(RequestOutcome::RejectedBackpressure)).collect();
    let makespan = (last_finish - first_arrival).max(0.0);
    let summary =
        LatencySummary::from_latencies_with_shed(&latencies, makespan, counts.shed_total());
    ServeOutcome {
        latencies,
        decisions,
        batches,
        max_batch_seen,
        batch_backends,
        service_secs,
        makespan,
        summary,
        outcomes,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::ServeBackend;
    use crate::checkpoint::Checkpoint;
    use crate::model::TaskDescriptor;
    use sgd_linalg::Matrix;

    fn lr_model(dim: usize) -> ServableModel {
        let w: Vec<Scalar> = (0..dim).map(|i| 0.1 * (i as Scalar + 1.0)).collect();
        let ck = Checkpoint::new(TaskDescriptor::LogisticRegression { dim: dim as u64 }, w)
            .expect("dims");
        ServableModel::from_checkpoint(&ck).expect("valid")
    }

    fn toy_pool() -> RequestPool {
        RequestPool::dense(Matrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[0.0, -1.0, 0.5],
            &[3.0, 1.0, 0.0],
        ]))
    }

    fn open_reqs(arrivals: &[f64]) -> Vec<OfferedRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &t)| OfferedRequest { arrival: t, priority: 0, row: i })
            .collect()
    }

    #[test]
    fn tier_caps_grade_linearly_and_unbounded_never_sheds() {
        let p = AdmissionPolicy::new(100, 1000, 1.0, 4);
        assert_eq!(p.tier_cap(0), 100);
        assert_eq!(p.tier_cap(1), 75);
        assert_eq!(p.tier_cap(2), 50);
        assert_eq!(p.tier_cap(3), 25);
        assert_eq!(p.tier_cap(99), 25, "priorities clamp to the last tier");
        let u = AdmissionPolicy::unbounded();
        assert_eq!(u.tier_cap(0), usize::MAX);
    }

    #[test]
    fn queue_bound_sheds_and_conserves() {
        let model = lr_model(3);
        let pool = toy_pool();
        // 32 simultaneous arrivals, queue bound 4, slow service: most
        // must shed at admission, and the ledger must balance.
        let arrivals = vec![0.0; 32];
        let mut srv = Server::new(ServeBackend::CpuSeq);
        let mut svc = ComputeService::new(&mut srv, &model, &pool);
        let admission = AdmissionPolicy::new(4, usize::MAX, f64::INFINITY, 1);
        let out = run_admitted(
            &mut svc,
            &BatchPolicy::new(2, 1e-3),
            &admission,
            &open_reqs(&arrivals),
            &ClosedClients::none(),
        );
        assert_eq!(out.counts.offered(), 32, "conservation");
        assert_eq!(out.outcomes.len(), 32);
        assert!(out.counts.shed_admission > 0, "queue bound must shed");
        assert!(out.counts.completed > 0, "queue share must complete");
        assert_eq!(out.counts.completed, out.latencies.len());
        assert_eq!(
            out.counts.completed + out.counts.shed_total(),
            32,
            "every request resolves exactly once"
        );
        assert!(out.summary.shed_fraction() > 0.0);
    }

    #[test]
    fn backpressure_bound_rejects_before_the_queue_fills() {
        let model = lr_model(3);
        let pool = toy_pool();
        let arrivals = vec![0.0; 16];
        let mut srv = Server::new(ServeBackend::CpuSeq);
        let mut svc = ComputeService::new(&mut srv, &model, &pool);
        let admission = AdmissionPolicy::new(usize::MAX, 3, f64::INFINITY, 1);
        let out = run_admitted(
            &mut svc,
            &BatchPolicy::unbatched(),
            &admission,
            &open_reqs(&arrivals),
            &ClosedClients::none(),
        );
        assert_eq!(out.counts.offered(), 16);
        assert_eq!(out.counts.rejected, 13, "3 in flight, 13 rejected");
        assert_eq!(out.counts.completed, 3);
        assert!(out.outcomes.iter().skip(3).all(|o| *o == RequestOutcome::RejectedBackpressure));
    }

    #[test]
    fn deadline_sheds_stale_requests_and_bounds_the_admitted_tail() {
        let model = lr_model(3);
        let pool = toy_pool();
        // A large simultaneous burst through a single-file server: late
        // queue positions wait far beyond the deadline and must shed at
        // assembly, keeping completed latencies under deadline + service.
        // Modeled cpu-seq service is ~2µs/request, so the burst drains
        // in ~128µs; a 40µs deadline sheds roughly the back two thirds.
        let arrivals = vec![0.0; 64];
        let deadline = 4e-5;
        let mut srv = Server::new(ServeBackend::CpuSeq);
        let mut svc = ComputeService::new(&mut srv, &model, &pool);
        let admission = AdmissionPolicy::new(usize::MAX, usize::MAX, deadline, 1);
        let out = run_admitted(
            &mut svc,
            &BatchPolicy::unbatched(),
            &admission,
            &open_reqs(&arrivals),
            &ClosedClients::none(),
        );
        assert_eq!(out.counts.offered(), 64);
        assert!(out.counts.shed_deadline > 0, "stale requests must shed");
        assert!(out.counts.completed > 0);
        let slack = 10.0 * deadline;
        assert!(
            out.latencies.iter().all(|&l| l <= deadline + slack),
            "admitted tail is bounded by the deadline (max {})",
            out.summary.max
        );
    }

    #[test]
    fn lower_priority_tiers_shed_first() {
        let model = lr_model(3);
        let pool = toy_pool();
        // Alternating priorities, simultaneous burst: tier 1's share of
        // the queue is half of tier 0's, so tier 1 sheds more.
        let open: Vec<OfferedRequest> =
            (0..32).map(|i| OfferedRequest { arrival: 0.0, priority: i % 2, row: i }).collect();
        let mut srv = Server::new(ServeBackend::CpuSeq);
        let mut svc = ComputeService::new(&mut srv, &model, &pool);
        let admission = AdmissionPolicy::new(8, usize::MAX, f64::INFINITY, 2);
        let out = run_admitted(
            &mut svc,
            &BatchPolicy::new(4, 1e-3),
            &admission,
            &open,
            &ClosedClients::none(),
        );
        let shed_by_tier = |tier: usize| {
            open.iter()
                .zip(&out.outcomes)
                .filter(|(r, o)| r.priority == tier && **o == RequestOutcome::ShedAtAdmission)
                .count()
        };
        assert_eq!(out.counts.offered(), 32);
        assert!(
            shed_by_tier(1) > shed_by_tier(0),
            "tier 1 shed {} must exceed tier 0 shed {}",
            shed_by_tier(1),
            shed_by_tier(0)
        );
    }

    #[test]
    fn closed_clients_resolve_every_issue_even_when_shed() {
        let model = lr_model(3);
        let pool = toy_pool();
        let mut srv = Server::new(ServeBackend::CpuSeq);
        let mut svc = ComputeService::new(&mut srv, &model, &pool);
        // Tiny in-flight bound: many closed issues are rejected, but the
        // clients keep their cadence and every issue resolves.
        let admission = AdmissionPolicy::new(2, 2, f64::INFINITY, 1);
        let closed = ClosedClients { clients: 4, per_client: 6, think: 0.0, priority: 0 };
        let out = run_admitted(
            &mut svc,
            &BatchPolicy::new(2, 1e-5),
            &admission,
            &[],
            &ClosedClients { ..closed },
        );
        assert_eq!(out.counts.offered(), 24, "4 clients x 6 requests all resolve");
        assert_eq!(out.outcomes.len(), 24);
        assert!(out.counts.completed > 0);
    }

    #[test]
    fn mixed_scenario_is_bit_deterministic() {
        let model = lr_model(3);
        let pool = toy_pool();
        let open: Vec<OfferedRequest> = (0..48)
            .map(|i| OfferedRequest { arrival: i as f64 * 5e-6, priority: i % 3, row: i })
            .collect();
        let closed = ClosedClients { clients: 3, per_client: 8, think: 1e-5, priority: 1 };
        let admission = AdmissionPolicy::new(12, 24, 5e-4, 3);
        let run = || {
            let mut srv = Server::new(ServeBackend::CpuSeq);
            let mut svc = ComputeService::new(&mut srv, &model, &pool);
            run_admitted(&mut svc, &BatchPolicy::new(4, 1e-4), &admission, &open, &closed)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outcomes, b.outcomes, "bit-identical shed decisions");
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts.offered(), 48 + 24);
        for (x, y) in a.latencies.iter().zip(&b.latencies) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.summary.p999.to_bits(), b.summary.p999.to_bits());
    }

    #[test]
    fn modeled_service_agrees_with_the_modeled_compute_path() {
        let model = lr_model(3);
        let pool = toy_pool();
        let arrivals: Vec<f64> = (0..32).map(|i| i as f64 * 1e-5).collect();
        let policy = BatchPolicy::new(4, 1e-4);
        let mut srv = Server::new(ServeBackend::CpuSeq);
        let mut real = ComputeService::new(&mut srv, &model, &pool);
        let a = run_admitted(
            &mut real,
            &policy,
            &AdmissionPolicy::unbounded(),
            &open_reqs(&arrivals),
            &ClosedClients::none(),
        );
        let mut modeled = ModeledService::for_predict(vec![ComputeBackend::CpuSeq], &model, &pool);
        let b = run_admitted(
            &mut modeled,
            &policy,
            &AdmissionPolicy::unbounded(),
            &open_reqs(&arrivals),
            &ClosedClients::none(),
        );
        assert_eq!(a.batches, b.batches);
        // Dense linear predict is affine in batch size, so the modeled
        // service's affine calibration is exact: bit-identical latencies.
        for (x, y) in a.latencies.iter().zip(&b.latencies) {
            assert_eq!(x.to_bits(), y.to_bits(), "modeled service must price like the server");
        }
        assert!(b.decisions.iter().all(|d| d.is_nan()), "modeled decisions record as NaN");
    }
}
