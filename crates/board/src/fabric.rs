//! The FPGA fabric: synthesized netlists clocked against the wire bank.
//!
//! Each fabric tick is one FPGA clock cycle: every netlist samples the
//! bank, evaluates, and drives back the wires whose write-enable outputs
//! are asserted. All netlists see the same pre-tick bank state and writes
//! are applied together afterwards — the same two-phase discipline as the
//! co-simulation kernel, so execution order cannot change results.
//!
//! The fabric is change-driven. A netlist whose last evaluated cycle
//! left every register unchanged, and whose inputs read the same as in
//! that cycle, is not evaluated again, and an evaluated netlist
//! recomputes only the nodes whose operands changed (see
//! [`NetlistSim::step`]); its node values, and so its drives, are
//! exactly what evaluating every node would produce. Every asserted drive is still written on every tick, so
//! bank values, write counts and conflict counts do not depend on the
//! skip. A warm tick allocates nothing: input and pending-write buffers
//! are reused.

use crate::board::BoardError;
use crate::wire_bank::{SlotId, WireBank};
use cosma_synth::{Netlist, NetlistSim, NodeId};
use std::collections::HashMap;
use std::fmt;

struct Instance {
    name: String,
    sim: NetlistSim,
    /// Bank slot per netlist input (by input index).
    input_slots: Vec<SlotId>,
    /// Input values sampled this tick, by input index.
    inputs: Vec<u64>,
    /// `(value node, we node, slot)` per driven wire.
    drives: Vec<(NodeId, NodeId, SlotId)>,
}

/// The fabric hosting synthesized hardware.
#[derive(Default)]
pub struct Fabric {
    instances: Vec<Instance>,
    /// Asserted drives of the current tick, `(slot, value)`.
    pending: Vec<(SlotId, u64)>,
    ticks: u64,
    /// Write conflicts observed (two instances driving one wire in the
    /// same tick).
    pub conflicts: u64,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("instances", &self.instances.len())
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

/// The `(wire, value node, we node)` of each `<wire>__out`/`<wire>__we`
/// output pair of a netlist.
fn drives(netlist: &Netlist) -> impl Iterator<Item = (&str, NodeId, NodeId)> + '_ {
    netlist.outputs().iter().filter_map(|(oname, node)| {
        let base = oname.strip_suffix("__out")?;
        let we_node = netlist.output(&format!("{base}__we"))?;
        Some((base, *node, we_node))
    })
}

/// Every bank wire a netlist connects to, `(name, width)`: its inputs,
/// then its driven wires.
fn wires(netlist: &Netlist) -> impl Iterator<Item = (&str, u32)> + '_ {
    let inputs = netlist.inputs().iter().map(|(n, w)| (n.as_str(), *w));
    inputs.chain(drives(netlist).map(|(base, node, _)| (base, netlist.width(node))))
}

impl Fabric {
    /// Creates an empty fabric.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks that placing `netlists` in order declares every bank wire
    /// with one width, agreeing with the bank and among themselves.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Setup`] naming the first clashing wire.
    pub(crate) fn check_widths<'a>(
        netlists: impl IntoIterator<Item = &'a Netlist>,
        bank: &WireBank,
    ) -> Result<(), BoardError> {
        let mut declared: HashMap<&str, u32> = HashMap::new();
        for netlist in netlists {
            for (name, width) in wires(netlist) {
                let have = match bank.index(name) {
                    Some(id) => bank.width(id),
                    None => *declared.entry(name).or_insert(width),
                };
                if have != width {
                    return Err(BoardError::Setup(format!(
                        "netlist {}: wire {name} already declared {have} bits wide, netlist wants {width}",
                        netlist.name()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Places a synthesized netlist into the fabric, connecting its
    /// inputs and `__out`/`__we` output pairs to like-named bank slots.
    /// Missing slots are created with the input/port widths.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Setup`] if a wire exists, or is needed twice
    /// by the netlist, with another width. The bank and the fabric are
    /// then left unchanged.
    pub fn place(&mut self, netlist: &Netlist, bank: &mut WireBank) -> Result<(), BoardError> {
        Self::check_widths([netlist], bank)?;
        let input_slots: Vec<SlotId> = netlist
            .inputs()
            .iter()
            .map(|(name, width)| bank.add(name, *width, 0))
            .collect();
        let drives = drives(netlist)
            .map(|(base, node, we_node)| (node, we_node, bank.add(base, netlist.width(node), 0)))
            .collect();
        self.instances.push(Instance {
            name: netlist.name().to_string(),
            sim: netlist.simulator(),
            inputs: vec![0; input_slots.len()],
            input_slots,
            drives,
        });
        Ok(())
    }

    /// One FPGA clock cycle.
    pub fn tick(&mut self, bank: &mut WireBank) {
        self.pending.clear();
        for inst in &mut self.instances {
            for (value, slot) in inst.inputs.iter_mut().zip(&inst.input_slots) {
                *value = bank.read(*slot);
            }
            inst.sim.step(&inst.inputs);
            for (value_node, we_node, slot) in &inst.drives {
                if inst.sim.node_value(*we_node) & 1 == 1 {
                    self.pending.push((*slot, inst.sim.node_value(*value_node)));
                }
            }
        }
        // Two-phase commit; detect multi-driver conflicts. The sort is
        // stable, so the last-placed driver of a wire wins.
        self.pending.sort_by_key(|(s, _)| s.0);
        for w in self.pending.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 != w[1].1 {
                self.conflicts += 1;
            }
        }
        for &(slot, v) in &self.pending {
            bank.write(slot, v);
        }
        self.ticks += 1;
    }

    /// Netlist steps actually evaluated, summed over instances. Out of
    /// `ticks() * instance_count()` instance-steps, the rest were
    /// skipped as settled.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.instances.iter().map(|i| i.sim.evaluations()).sum()
    }

    /// Number of placed netlists.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Total fabric clock cycles.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Aggregate technology report over all placed instances.
    #[must_use]
    pub fn tech_report(&self) -> cosma_synth::TechReport {
        let mut luts = 0;
        let mut ffs = 0;
        let mut clbs = 0;
        let mut depth = 0;
        let mut crit: f64 = 0.0;
        for inst in &self.instances {
            let r = inst.sim.netlist().tech_report();
            luts += r.luts;
            ffs += r.ffs;
            clbs += r.clbs;
            depth = depth.max(r.depth);
            crit = crit.max(r.crit_ns);
        }
        cosma_synth::TechReport {
            luts,
            ffs,
            clbs,
            depth,
            crit_ns: crit,
            fmax_mhz: if crit > 0.0 { 1000.0 / crit } else { 500.0 },
        }
    }

    /// Names of placed instances.
    pub fn instance_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.instances.iter().map(|i| i.name.as_str())
    }

    /// Register value inside a placed instance (debug/observability).
    #[must_use]
    pub fn reg_value(&self, instance: &str, reg: &str) -> Option<u64> {
        let inst = self.instances.iter().find(|i| i.name == instance)?;
        let r = inst.sim.netlist().find_reg(reg)?;
        Some(inst.sim.reg_value(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_synth::{Netlist, Op};

    /// A netlist that increments the bank wire `N` every cycle.
    fn incrementer() -> Netlist {
        let mut n = Netlist::new("inc");
        let (_, cur) = n.input("N", 16);
        let one = n.constant(1, 16);
        let next = n.bin(Op::Add, cur, one);
        let we = n.constant(1, 1);
        n.mark_output("N__out", next);
        n.mark_output("N__we", we);
        n
    }

    #[test]
    fn placed_netlist_drives_bank() {
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&incrementer(), &mut bank).unwrap();
        assert_eq!(fabric.instance_count(), 1);
        for _ in 0..5 {
            fabric.tick(&mut bank);
        }
        assert_eq!(bank.read_named("N"), Some(5));
        assert_eq!(fabric.ticks(), 5);
    }

    #[test]
    fn conditional_write_enable_respected() {
        // Drives only when EN is set.
        let mut n = Netlist::new("cond");
        let (_, en) = n.input("EN", 1);
        let (_, x) = n.input("X", 8);
        let one = n.constant(1, 8);
        let next = n.bin(Op::Add, x, one);
        n.mark_output("X__out", next);
        n.mark_output("X__we", en);

        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&n, &mut bank).unwrap();
        fabric.tick(&mut bank);
        assert_eq!(bank.read_named("X"), Some(0), "EN low: no write");
        bank.write_named("EN", 1);
        fabric.tick(&mut bank);
        assert_eq!(bank.read_named("X"), Some(1));
    }

    #[test]
    fn instances_share_wires_two_phase() {
        // Two incrementers of the same wire in one tick: both read the
        // same pre-tick value, so the result is +1 (and a conflict is
        // *not* flagged because both drive the same value).
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&incrementer(), &mut bank).unwrap();
        fabric.place(&incrementer(), &mut bank).unwrap();
        fabric.tick(&mut bank);
        assert_eq!(bank.read_named("N"), Some(1));
        assert_eq!(fabric.conflicts, 0);
    }

    #[test]
    fn conflicting_drivers_counted() {
        let mut a = Netlist::new("a");
        let c5 = a.constant(5, 8);
        let we = a.constant(1, 1);
        a.mark_output("W__out", c5);
        a.mark_output("W__we", we);
        let mut b = Netlist::new("b");
        let c9 = b.constant(9, 8);
        let we = b.constant(1, 1);
        b.mark_output("W__out", c9);
        b.mark_output("W__we", we);
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&a, &mut bank).unwrap();
        fabric.place(&b, &mut bank).unwrap();
        fabric.tick(&mut bank);
        assert_eq!(fabric.conflicts, 1);
    }

    #[test]
    fn settled_instance_skips_evaluation_but_keeps_driving() {
        // W follows EN; no registers, so it settles after one cycle.
        let mut n = Netlist::new("follow");
        let (_, en) = n.input("EN", 1);
        let we = n.constant(1, 1);
        n.mark_output("W__out", en);
        n.mark_output("W__we", we);
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&n, &mut bank).unwrap();
        for _ in 0..4 {
            fabric.tick(&mut bank);
        }
        let w = bank.index("W").unwrap();
        assert_eq!(fabric.evaluations(), 1);
        assert_eq!(bank.write_count(w), 4, "skipped steps still drive");
        bank.write_named("EN", 1);
        fabric.tick(&mut bank);
        assert_eq!(bank.read(w), 1);
        assert_eq!(fabric.evaluations(), 2);
    }

    #[test]
    fn aggregate_tech_report() {
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&incrementer(), &mut bank).unwrap();
        fabric.place(&incrementer(), &mut bank).unwrap();
        let single = incrementer().tech_report();
        let agg = fabric.tech_report();
        assert_eq!(agg.luts, 2 * single.luts);
        assert!(fabric.instance_names().count() == 2);
    }

    #[test]
    fn reg_observability() {
        let mut n = Netlist::new("regs");
        let r = n.reg("STATE", 4, 3);
        let cur = n.read_reg(r);
        n.set_reg_next(r, cur);
        let mut bank = WireBank::new();
        let mut fabric = Fabric::new();
        fabric.place(&n, &mut bank).unwrap();
        fabric.tick(&mut bank);
        assert_eq!(fabric.reg_value("regs", "STATE"), Some(3));
        assert_eq!(fabric.reg_value("regs", "NOPE"), None);
        assert_eq!(fabric.reg_value("nope", "STATE"), None);
    }
}
