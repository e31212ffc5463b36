//! NT-to-MP multicast adapter (paper Sec. III-C, Fig. 3): the
//! `P_node × P_edge` grid of registered queues that decouples the NT and
//! MP units in scatter regions, plus the shared region context
//! ([`ScatterCtx`]) the units operate in and the coupled jump that
//! advances the saturated NT→queue→MP chain in bulk.
//!
//! The adapter is flit-granular and each (NT, MP) queue makes progress
//! independently — atomic multicast would deadlock: two MP units each
//! waiting on a different NT's flits can fill the cross queues.

use flowgnn_desim::Fifo;
use flowgnn_graph::NodeId;

use crate::regions::BankedEdges;
use crate::trace::LaneSymbol;
use crate::units::mp::MpUnit;
use crate::units::nt::NtUnit;
use crate::units::{AccCost, DataflowCtx, RegionStats, UnitStep};

/// A flit through the NT-to-MP adapter: `P_scatter` embedding elements of
/// one node (values live in the execution state; flits carry timing).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Flit {
    pub(crate) node: NodeId,
}

/// Queue index for the (NT unit, MP bank) pair.
pub(crate) fn qindex(nt_unit: usize, k: usize, p_edge: usize) -> usize {
    nt_unit * p_edge + k
}

/// Shared context of one scatter-style region (NT→MP or NT-only): the
/// adapter's queue grid, the region's fold order, and its cost parameters,
/// copied from the region's compiled timing so no unit step divides.
pub(crate) struct ScatterCtx<'a> {
    /// The adapter: one queue per (NT, MP) pair, indexed by [`qindex`].
    pub(crate) queues: &'a mut [Fifo<Flit>],
    pub(crate) p_node: usize,
    pub(crate) p_edge: usize,
    /// Flit pops per MP unit per cycle: `max(P_apply / P_scatter, 1)`.
    pub(crate) intake: usize,
    /// Flit pushes per NT unit per target queue per cycle:
    /// `⌈P_apply / P_scatter⌉`.
    pub(crate) push_budget: usize,
    /// Flits per node-embedding through the adapter.
    pub(crate) flits_total: usize,
    /// MP cycles per edge; `None` in NT-only regions (no MP units).
    pub(crate) chunks: Option<u64>,
    /// Per chunk of an edge, the flits that must have arrived before the
    /// chunk can advance: all of them under node-granular forwarding
    /// (BaselineDataflow), else a proportional share (FlowGnn). Empty in
    /// NT-only regions.
    pub(crate) flits_needed: &'a [usize],
    pub(crate) p_apply: usize,
    pub(crate) p_scatter: usize,
    /// NT payload (output embedding) dimension.
    pub(crate) payload: usize,
    /// NT accumulate cost per node.
    pub(crate) acc: AccCost,
    pub(crate) banked: &'a BankedEdges,
    /// The region's fold order, which MP units append each edge they
    /// complete to; `None` in timing-only runs.
    pub(crate) order: Option<&'a mut Vec<u32>>,
    /// Coupled-jump scratch: each MP unit's role, then each NT unit's.
    pub(crate) roles: Vec<ChainRole>,
}

impl DataflowCtx for ScatterCtx<'_> {
    type Front = MpUnit;
    type Back = NtUnit;

    fn commit_queues(&mut self) {
        for q in self.queues.iter_mut() {
            q.commit();
        }
    }

    fn queues_empty(&self) -> bool {
        self.queues.iter().all(Fifo::is_empty)
    }

    fn dump_queues(&self) {
        for (i, q) in self.queues.iter().enumerate() {
            eprintln!("Q{i}: len={} ready={}", q.len(), q.ready_len());
        }
    }

    /// The coupled jump (DESIGN.md §3b): when the only cross-unit traffic
    /// is "an MP unit pops a flit and the blocked NT unit refills that
    /// slot", that traffic is deterministic until the next edge, node or
    /// job boundary on either side. Each unit bounds the window: pure
    /// units by their horizon, receiving MP units by their flits, chunks
    /// and ready flits, refilling NT units by their job's retirement.
    /// Every bound stops short of that unit's next event, so the boundary
    /// cycle still runs through the per-cycle code.
    fn coupled_jump(
        &mut self,
        mps: &mut [MpUnit],
        nts: &mut [NtUnit],
        cap: u64,
        stats: &mut RegionStats,
    ) -> u64 {
        // One pop per MP unit and one push per target queue per cycle:
        // only when P_apply ≤ P_scatter.
        if self.push_budget != 1 {
            return 0;
        }
        let mut window = cap;
        self.roles.clear();
        for mp in mps.iter() {
            let Some((bound, role)) = mp.chain_role(self) else {
                return 0;
            };
            window = window.min(bound);
            if window < 2 {
                return 0;
            }
            self.roles.push(role);
        }
        for nt in nts.iter() {
            let Some((bound, role)) = nt.chain_role(&self.roles[..mps.len()], self) else {
                return 0;
            };
            window = window.min(bound);
            if window < 2 {
                return 0;
            }
            self.roles.push(role);
        }

        let roles = std::mem::take(&mut self.roles);
        let (mp_roles, nt_roles) = roles.split_at(mps.len());
        // Pops before pushes, as within a cycle: every push lands in a
        // slot a pop freed.
        for (mp, &role) in mps.iter_mut().zip(mp_roles) {
            match role {
                ChainRole::Pure(activity) => mp.fast_forward(window, activity, self, stats),
                ChainRole::Receive(_) => mp.receive_for(window, self, stats),
                ChainRole::Refill => unreachable!("MP units never refill"),
            }
        }
        for (nt, &role) in nts.iter_mut().zip(nt_roles) {
            match role {
                ChainRole::Pure(activity) => nt.fast_forward(window, activity, self, stats),
                ChainRole::Refill => nt.refill_for(window, mp_roles, self, stats),
                ChainRole::Receive(_) => unreachable!("NT units never receive"),
            }
        }
        self.commit_queues();
        self.roles = roles;
        window
    }
}

/// A unit's part in a coupled jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChainRole {
    /// Runs through the window on its own pure horizon, in this activity.
    Pure(LaneSymbol),
    /// An MP unit popping this queue once per cycle into its back job
    /// while its front job processes one chunk per cycle.
    Receive(usize),
    /// An NT unit refilling the queues its receiving MP units pop.
    Refill,
}
