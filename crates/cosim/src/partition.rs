//! Partitioned co-simulation: several backplane instances coupled
//! through latency-annotated boundary links and synchronized
//! optimistically.
//!
//! A [`Partition`] wraps one [`Cosim`] backplane. The [`Orchestrator`]
//! advances all partitions in lockstep *quanta*: each partition
//! speculates one sync quantum ahead on its own, and cross-partition
//! traffic travels through [`BoundarySpec`]-described boundary links —
//! a pair of batched half-units sharing one latency-stamped message
//! queue across the cut. Because partitions run sequentially within a
//! quantum, a partition may consume a *stale* view of an inbound
//! queue; the orchestrator detects this after the fact and rolls the
//! partition back to the quantum start via the backplane's
//! [`Snapshot`]/[`Cosim::restore`] path, then re-runs
//! it against the refreshed queue. With strictly positive boundary
//! latency the fixed point converges: every rescan round extends the
//! consistent horizon by at least one boundary latency.
//!
//! The result is bit-identical to running the same coupled structure
//! (including the boundary half-units) in a single backplane — the
//! property-test oracle — while opening the door to running partitions
//! on separate threads or processes.

use crate::backplane::{BoundaryQueue, Cosim, CosimError, DomainId, Snapshot, UnitId};
use cosma_comm::BusTiming;
use cosma_core::{Type, Value};
use cosma_sim::{Duration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Identifies a partition registered with an [`Orchestrator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionId(usize);

impl PartitionId {
    /// Index of this partition in the orchestrator's table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// One end's description of a boundary link. Both ends must describe
/// the link identically — [`Orchestrator::add_boundary`] rejects
/// disagreeing ends with [`CosimError::Setup`], since a link whose
/// halves disagree on capacity or timing would silently desynchronize
/// the partitioned run from its monolithic oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundarySpec {
    /// Element type carried by the link.
    pub data_ty: Type,
    /// Maximum batch size of the underlying batched link.
    pub max_batch: usize,
    /// Capacity (element queue depth) of each half.
    pub capacity: usize,
    /// Bus timing of each half.
    pub timing: BusTiming,
    /// Transport latency across the cut. Must be strictly positive:
    /// the optimistic sync relies on a nonzero horizon to order
    /// cross-partition delivery deterministically.
    pub latency: Duration,
}

/// Cumulative synchronization statistics of an [`Orchestrator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrchestratorStats {
    /// Quanta fully committed.
    pub quanta_committed: u64,
    /// Partition re-runs forced by a stale inbound-queue view.
    pub rollbacks: u64,
    /// Values transported across all boundary links.
    pub boundary_messages: u64,
    /// Consistency-scan rounds executed (one per quantum when no
    /// rollback occurs).
    pub rescan_rounds: u64,
}

/// One partition: a backplane plus its boundary bookkeeping.
#[derive(Debug)]
pub struct Partition {
    cosim: Cosim,
    /// Boundary indices whose *out* half lives here.
    outs: Vec<usize>,
    /// Boundary indices whose *in* half lives here.
    ins: Vec<usize>,
}

impl Partition {
    /// The wrapped backplane.
    #[must_use]
    pub fn cosim(&self) -> &Cosim {
        &self.cosim
    }

    /// The wrapped backplane, mutably.
    pub fn cosim_mut(&mut self) -> &mut Cosim {
        &mut self.cosim
    }
}

/// Couples partitions and advances them in optimistically-synchronized
/// quanta. See the [module docs](self) for the synchronization
/// contract. Which partitions a boundary's halves live on is recorded
/// in the partitions' `outs`/`ins` index lists.
pub struct Orchestrator {
    partitions: Vec<Partition>,
    boundaries: Vec<Rc<RefCell<BoundaryQueue>>>,
    stats: OrchestratorStats,
    now: SimTime,
    started: bool,
}

impl Default for Orchestrator {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("partitions", &self.partitions.len())
            .field("boundaries", &self.boundaries.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Rescan rounds per quantum before the orchestrator gives up. The
/// fixed point converges in at most `quantum / min_latency + 1` rounds
/// (each round extends the consistent horizon by one boundary
/// latency); a run that exceeds this cap indicates a latency/quantum
/// configuration far outside anything sensible.
const MAX_RESCAN_ROUNDS: u32 = 10_000;

impl Orchestrator {
    /// An orchestrator with no partitions.
    #[must_use]
    pub fn new() -> Self {
        Orchestrator {
            partitions: vec![],
            boundaries: vec![],
            stats: OrchestratorStats::default(),
            now: SimTime::ZERO,
            started: false,
        }
    }

    /// Registers a backplane as a partition. The backplane's clock
    /// domains are *pinned* ([`Cosim::pin_clock_domains`]) so every
    /// partition produces the same activation-edge grid regardless of
    /// how the cut distributes clock demand — the property that makes
    /// partitioned runs bit-identical to the monolithic oracle.
    pub fn add_partition(&mut self, mut cosim: Cosim) -> PartitionId {
        cosim.pin_clock_domains();
        self.partitions.push(Partition {
            cosim,
            outs: vec![],
            ins: vec![],
        });
        PartitionId(self.partitions.len() - 1)
    }

    /// Installs a boundary link: the *out* half (producers `put` into
    /// it) on `from` in `from_domain`, the *in* half (consumers `get`
    /// from it) on `to` in `to_domain`. Each side passes its own
    /// [`BoundarySpec`]; both ends must agree.
    ///
    /// Returns the unit ids of the two halves (`out`, `in`) — bind
    /// producer modules to the first on `from`, consumer modules to
    /// the second on `to`.
    ///
    /// # Errors
    ///
    /// [`CosimError::Setup`] when the two specs disagree, the latency
    /// is zero, a partition id is stale, the quantum loop already
    /// started, or the halves collide with existing unit names.
    #[allow(clippy::too_many_arguments)]
    pub fn add_boundary(
        &mut self,
        name: &str,
        from: PartitionId,
        from_domain: DomainId,
        from_spec: &BoundarySpec,
        to: PartitionId,
        to_domain: DomainId,
        to_spec: &BoundarySpec,
    ) -> Result<(UnitId, UnitId), CosimError> {
        if self.started {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: boundaries must be installed before the first quantum"
            )));
        }
        if from_spec != to_spec {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: the two ends disagree on the link contract \
                 ({from_spec:?} vs {to_spec:?}); both partitions must describe the \
                 boundary identically"
            )));
        }
        if from.0 >= self.partitions.len() || to.0 >= self.partitions.len() {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: unknown partition id (this orchestrator has {})",
                self.partitions.len()
            )));
        }
        let queue = Rc::new(RefCell::new(BoundaryQueue::default()));
        let spec = from_spec;
        let out_id = self.partitions[from.0].cosim.add_boundary_out(
            from_domain,
            name,
            spec.data_ty.clone(),
            spec.max_batch,
            spec.capacity,
            spec.timing,
            spec.latency,
            Rc::clone(&queue),
        )?;
        let in_id = self.partitions[to.0].cosim.add_boundary_in(
            to_domain,
            name,
            spec.data_ty.clone(),
            spec.max_batch,
            spec.capacity,
            spec.timing,
            Rc::clone(&queue),
        )?;
        let bi = self.boundaries.len();
        self.boundaries.push(queue);
        self.partitions[from.0].outs.push(bi);
        self.partitions[to.0].ins.push(bi);
        Ok((out_id, in_id))
    }

    /// A registered partition.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this orchestrator.
    #[must_use]
    pub fn partition(&self, p: PartitionId) -> &Partition {
        &self.partitions[p.0]
    }

    /// A registered partition, mutably. Mutating simulation state
    /// mid-quantum voids the bit-identical guarantee; use between
    /// quanta (e.g. to inspect traces or poke test stimuli).
    pub fn partition_mut(&mut self, p: PartitionId) -> &mut Partition {
        &mut self.partitions[p.0]
    }

    /// Number of registered partitions.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Cumulative synchronization statistics.
    #[must_use]
    pub fn stats(&self) -> OrchestratorStats {
        self.stats
    }

    /// Global simulated time reached by the committed quanta.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances every partition by `total`, in sync quanta of
    /// `quantum` (the final quantum is clipped to the remainder).
    ///
    /// # Errors
    ///
    /// [`CosimError::Setup`] when `quantum` is zero; any error a
    /// partition run or snapshot/restore produces; and
    /// [`CosimError::Runtime`] if a quantum's consistency scan fails
    /// to converge.
    pub fn run_for(&mut self, total: Duration, quantum: Duration) -> Result<(), CosimError> {
        if quantum == Duration::ZERO {
            return Err(CosimError::Setup(
                "sync quantum must be positive".to_string(),
            ));
        }
        let deadline = self.now.saturating_add(total);
        while self.now < deadline {
            let t1 = self.now.saturating_add(quantum).min(deadline);
            self.run_quantum(t1)?;
        }
        Ok(())
    }

    /// Runs one optimistic quantum `[now, t1]`: speculate every
    /// partition to `t1`, then rescan until every partition's view of
    /// its inbound boundary queues matches the committed producer
    /// state, rolling stale partitions back and re-running them.
    fn run_quantum(&mut self, t1: SimTime) -> Result<(), CosimError> {
        if !self.started {
            self.started = true;
            // Elaborate every partition before the first checkpoint: a
            // snapshot of a never-elaborated kernel captures the empty
            // sensitivity sets that steady-state (`Wait::Same`)
            // processes only populate during their elaboration run, so
            // restoring one would strand them deaf. Settling the start
            // instant here is safe — boundary latency is strictly
            // positive, so no cross-partition message can influence
            // the instant it was sent at.
            for p in &mut self.partitions {
                p.cosim.run_until(self.now)?;
            }
        }
        let n = self.partitions.len();
        // Quantum-start checkpoint: backplane snapshots plus each
        // queue's (length, cursor).
        let snaps: Vec<Snapshot> = self.partitions.iter().map(|p| p.cosim.snapshot()).collect();
        let q0: Vec<(usize, usize)> = self
            .boundaries
            .iter()
            .map(|b| {
                let q = b.borrow();
                (q.entries.len(), q.cursor)
            })
            .collect();
        // views[p][k] = what partition p saw of its k-th inbound
        // queue's this-quantum suffix, recorded when p's run ended.
        let mut views: Vec<Vec<Vec<(SimTime, Value)>>> = vec![vec![]; n];
        // Initial speculation, in partition order.
        for (p, view) in views.iter_mut().enumerate() {
            self.partitions[p].cosim.run_until(t1)?;
            *view = self.record_view(p, &q0);
        }
        // Rescan to the fixed point. A partition is consistent when,
        // for every inbound queue, the suffix it ran against is a
        // prefix of the current suffix *by content* and everything
        // beyond that prefix arrives after t1 (so it could not have
        // been injected this quantum anyway). Content comparison — not
        // length — lets a producer that rolled back and regenerated
        // identical traffic leave its consumers undisturbed.
        //
        // A stale partition is rolled back and re-run IMMEDIATELY, so
        // the queues its rollback truncated are regenerated before any
        // other partition's staleness is judged against them. (Judging
        // the whole set first and re-running afterwards livelocks on
        // cyclic cuts: two mutually-stale partitions would each
        // truncate the other's input in the same pass, recreating the
        // exact pre-round state forever.) Convergence with immediate
        // re-runs follows from causality: traffic arriving within k
        // boundary latencies of the quantum start is fixed after k
        // rounds, so the consistent horizon outruns the quantum in
        // `quantum / min_latency` rounds.
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            self.stats.rescan_rounds += 1;
            if rounds > MAX_RESCAN_ROUNDS {
                return Err(CosimError::Runtime(format!(
                    "optimistic sync did not converge within {MAX_RESCAN_ROUNDS} rescan \
                     rounds (quantum {:?}..{t1:?}); boundary latencies are implausibly \
                     small versus the sync quantum",
                    self.now
                )));
            }
            let mut any_stale = false;
            for (p, view) in views.iter_mut().enumerate() {
                let stale = self.partitions[p].ins.iter().enumerate().any(|(k, &bi)| {
                    let q = self.boundaries[bi].borrow();
                    let cur = &q.entries[q0[bi].0..];
                    let seen = &view[k];
                    cur.len() < seen.len()
                        || cur[..seen.len()] != seen[..]
                        || cur[seen.len()..].iter().any(|(t, _)| *t <= t1)
                });
                if stale {
                    any_stale = true;
                    self.stats.rollbacks += 1;
                    self.rollback(p, &snaps, &q0)?;
                    self.partitions[p].cosim.run_until(t1)?;
                    *view = self.record_view(p, &q0);
                }
            }
            if !any_stale {
                break;
            }
        }
        // Commit: count this quantum's traffic, then drop the consumed
        // prefix of every queue so memory stays bounded.
        for (bi, b) in self.boundaries.iter().enumerate() {
            let mut q = b.borrow_mut();
            self.stats.boundary_messages += (q.entries.len() - q0[bi].0) as u64;
            let consumed = q.cursor;
            q.entries.drain(..consumed);
            q.cursor = 0;
        }
        self.stats.quanta_committed += 1;
        self.now = t1;
        Ok(())
    }

    /// What partition `p` currently sees of each of its inbound
    /// queues' this-quantum suffix.
    fn record_view(&self, p: usize, q0: &[(usize, usize)]) -> Vec<Vec<(SimTime, Value)>> {
        self.partitions[p]
            .ins
            .iter()
            .map(|&bi| self.boundaries[bi].borrow().entries[q0[bi].0..].to_vec())
            .collect()
    }

    /// Rolls partition `p` back to the quantum start: restore its
    /// backplane snapshot, truncate its outbound queues to their
    /// quantum-start length (un-publishing its speculative traffic)
    /// and rewind its inbound cursors (un-consuming).
    fn rollback(
        &mut self,
        p: usize,
        snaps: &[Snapshot],
        q0: &[(usize, usize)],
    ) -> Result<(), CosimError> {
        let part = &mut self.partitions[p];
        part.cosim.restore(&snaps[p]).map_err(|e| {
            CosimError::Runtime(format!(
                "rollback of partition {p} failed ({e}); partitioned state is now \
                 inconsistent"
            ))
        })?;
        for &bi in &part.outs {
            // The consumer's cursor may transiently point past the
            // truncation point; its own staleness check will catch the
            // mismatch and rewind it before anything reads the queue.
            self.boundaries[bi].borrow_mut().entries.truncate(q0[bi].0);
        }
        for &bi in &part.ins {
            self.boundaries[bi].borrow_mut().cursor = q0[bi].1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backplane::CosimConfig;

    fn spec() -> BoundarySpec {
        BoundarySpec {
            data_ty: Type::INT16,
            max_batch: 4,
            capacity: 16,
            timing: BusTiming::LengthOnly,
            latency: Duration::from_ns(200),
        }
    }

    fn two_partitions() -> (Orchestrator, PartitionId, PartitionId) {
        let mut orch = Orchestrator::new();
        let a = orch.add_partition(Cosim::new(CosimConfig::default()));
        let b = orch.add_partition(Cosim::new(CosimConfig::default()));
        (orch, a, b)
    }

    #[test]
    fn boundary_ends_must_agree() {
        let (mut orch, a, b) = two_partitions();
        let disagree = BoundarySpec {
            capacity: 8,
            ..spec()
        };
        let err = orch
            .add_boundary(
                "cut",
                a,
                DomainId::BASE,
                &spec(),
                b,
                DomainId::BASE,
                &disagree,
            )
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    #[test]
    fn boundary_latency_must_be_positive() {
        let (mut orch, a, b) = two_partitions();
        let zero = BoundarySpec {
            latency: Duration::ZERO,
            ..spec()
        };
        let err = orch
            .add_boundary("cut", a, DomainId::BASE, &zero, b, DomainId::BASE, &zero)
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
        assert!(err.to_string().contains("latency"), "{err}");
    }

    #[test]
    fn boundary_rejects_foreign_partition_id() {
        let (mut orch, a, _) = two_partitions();
        let stale = PartitionId(7);
        let err = orch
            .add_boundary(
                "cut",
                a,
                DomainId::BASE,
                &spec(),
                stale,
                DomainId::BASE,
                &spec(),
            )
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
    }

    #[test]
    fn boundaries_frozen_after_first_quantum() {
        let (mut orch, a, b) = two_partitions();
        orch.run_for(Duration::from_us(1), Duration::from_us(1))
            .unwrap();
        let err = orch
            .add_boundary(
                "cut",
                a,
                DomainId::BASE,
                &spec(),
                b,
                DomainId::BASE,
                &spec(),
            )
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
    }

    #[test]
    fn sync_quantum_must_be_positive() {
        let (mut orch, _, _) = two_partitions();
        let err = orch
            .run_for(Duration::from_us(1), Duration::ZERO)
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
    }
}
