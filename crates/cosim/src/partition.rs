//! Partitioned co-simulation: several backplane instances coupled
//! through latency-annotated boundary links and stepped conservatively
//! by the boundary latency.
//!
//! The [`Orchestrator`] owns one [`Cosim`] backplane per partition.
//! Cross-partition traffic travels through [`BoundarySpec`]-described
//! boundary links: a pair of batched half-units sharing one
//! latency-stamped message queue across the cut. Every boundary latency
//! is strictly positive, and the smallest one, `L`, is the lookahead:
//! each quantum runs every partition from `now` to `now + L`. A value
//! exported at an instant `t > now` arrives at `t + latency > now + L`,
//! after the quantum its consumer is running, and a value exported at
//! `now` itself was queued by the previous quantum. So no partition
//! reads another's same-quantum output, and nothing is speculated,
//! checkpointed or rolled back.
//!
//! The result is bit-identical to running the same coupled structure
//! (including the boundary half-units) in a single backplane
//! ([`crate::scenario::build_collapsed`], the property-test oracle).
//! Since the partitions of one quantum never read each other's output,
//! they could also run side by side.

use crate::backplane::{BoundaryQueue, Cosim, CosimError, DomainId, UnitId};
use cosma_comm::BusTiming;
use cosma_core::Type;
use cosma_sim::{Duration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Identifies a partition registered with an [`Orchestrator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionId(pub(crate) usize);

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
    /// Transport latency across the cut. Must be strictly positive: the
    /// smallest boundary latency is the length of the orchestrator's
    /// quanta, the lookahead within which no partition can see another
    /// partition's new output.
    pub latency: Duration,
}

/// Cumulative synchronization statistics of an [`Orchestrator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrchestratorStats {
    /// Quanta completed by every partition.
    pub quanta_committed: u64,
    /// Values transported across all boundary links.
    pub boundary_messages: u64,
}

/// Couples partitions and advances them in lookahead quanta. See the
/// [module docs](self) for the synchronization contract.
pub struct Orchestrator {
    partitions: Vec<Cosim>,
    boundaries: Vec<Rc<RefCell<BoundaryQueue>>>,
    /// Smallest boundary latency (the quantum); `None` without
    /// boundaries, when one quantum spans a whole run.
    lookahead: Option<Duration>,
    quanta_committed: u64,
    now: SimTime,
    started: bool,
    /// The first error a run hit; every later run returns it.
    failed: Option<CosimError>,
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
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Orchestrator {
    /// An orchestrator with no partitions.
    #[must_use]
    pub fn new() -> Self {
        Orchestrator {
            partitions: vec![],
            boundaries: vec![],
            lookahead: None,
            quanta_committed: 0,
            now: SimTime::ZERO,
            started: false,
            failed: None,
        }
    }

    /// Registers a backplane as a partition. The backplane's clock
    /// domains are *pinned* ([`Cosim::pin_clock_domains`]) so every
    /// partition produces the same activation-edge grid regardless of
    /// how the cut distributes clock demand — the property that makes
    /// partitioned runs bit-identical to the monolithic oracle.
    pub fn add_partition(&mut self, mut cosim: Cosim) -> PartitionId {
        cosim.pin_clock_domains();
        self.partitions.push(cosim);
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
    /// is zero, a partition id is stale or the orchestrator already ran.
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
        let out_id = self.partitions[from.0].add_boundary_out(
            from_domain,
            name,
            from_spec,
            Rc::clone(&queue),
        )?;
        let in_id =
            self.partitions[to.0].add_boundary_in(to_domain, name, to_spec, Rc::clone(&queue))?;
        self.boundaries.push(queue);
        let latency = from_spec.latency;
        self.lookahead = Some(self.lookahead.map_or(latency, |l| l.min(latency)));
        Ok((out_id, in_id))
    }

    /// A registered partition's backplane.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this orchestrator.
    #[must_use]
    pub fn partition(&self, p: PartitionId) -> &Cosim {
        &self.partitions[p.0]
    }

    /// A registered partition's backplane, mutably. Mutating
    /// simulation state voids the bit-identical guarantee; use between
    /// runs (e.g. to inspect traces or poke test stimuli).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this orchestrator.
    pub fn partition_mut(&mut self, p: PartitionId) -> &mut Cosim {
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
        OrchestratorStats {
            quanta_committed: self.quanta_committed,
            boundary_messages: self.boundaries.iter().map(|q| q.borrow().sent).sum(),
        }
    }

    /// Global simulated time reached by the completed quanta.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances every partition by `total`. The first run settles the
    /// start instant in every partition; then each quantum runs every
    /// partition, in partition order, to `min(now + L, deadline)`, `L`
    /// the smallest boundary latency (without boundaries, one quantum
    /// reaches the deadline).
    ///
    /// # Errors
    ///
    /// The first error a partition run produces. It poisons the
    /// orchestrator, since there is no checkpoint to return to: the
    /// partitions stay where the failing quantum stopped them (their
    /// module statuses and trace logs can still be read through
    /// [`Orchestrator::partition`]), [`Orchestrator::now`] stays at the
    /// end of the last completed quantum, and every later call returns
    /// the same error without running any partition.
    pub fn run_for(&mut self, total: Duration) -> Result<(), CosimError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let deadline = self.now.saturating_add(total);
        self.run_until(deadline)
            .inspect_err(|e| self.failed = Some(e.clone()))
    }

    fn run_until(&mut self, deadline: SimTime) -> Result<(), CosimError> {
        if !self.started {
            self.started = true;
            // Values exported at the start instant arrive at the end of
            // the first quantum, so every partition must have settled it
            // before any partition runs the quantum.
            for cosim in &mut self.partitions {
                cosim.run_until(self.now)?;
            }
        }
        while self.now < deadline {
            let t1 = self
                .lookahead
                .map_or(deadline, |l| self.now.saturating_add(l).min(deadline));
            for cosim in &mut self.partitions {
                cosim.run_until(t1)?;
            }
            self.quanta_committed += 1;
            self.now = t1;
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
    fn quanta_follow_the_smallest_boundary_latency() {
        let (mut orch, _, _) = two_partitions();
        orch.run_for(Duration::from_us(1)).unwrap();
        assert_eq!(orch.stats().quanta_committed, 1, "no boundary: one quantum");
        // 1 µs in 200 ns quanta, then a 50 ns remainder.
        let (mut orch, a, b) = two_partitions();
        for (name, ns, from, to) in [("ab", 300, a, b), ("ba", 200, b, a)] {
            let spec = BoundarySpec {
                latency: Duration::from_ns(ns),
                ..spec()
            };
            orch.add_boundary(name, from, DomainId::BASE, &spec, to, DomainId::BASE, &spec)
                .unwrap();
        }
        orch.run_for(Duration::from_us(1)).unwrap();
        orch.run_for(Duration::from_ns(50)).unwrap();
        assert_eq!(orch.stats().quanta_committed, 6);
        assert_eq!(orch.now(), SimTime::ZERO + Duration::from_ns(1_050));
        for p in [a, b] {
            assert_eq!(orch.partition(p).sim().now(), orch.now());
        }
    }

    #[test]
    fn boundaries_frozen_after_first_quantum() {
        let (mut orch, a, b) = two_partitions();
        orch.run_for(Duration::from_us(1)).unwrap();
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
}
