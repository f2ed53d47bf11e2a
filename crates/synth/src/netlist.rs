//! Executable word-level RTL netlists.
//!
//! Hardware synthesis lowers an FSMD module to a [`Netlist`]: a DAG of
//! word-level combinational nodes feeding clocked registers. The netlist
//! is *executable* (cycle-accurate evaluation) so the co-synthesized
//! hardware can run on the board model and be checked against the
//! interpreted FSM — coherence as a measurement, not an assumption.
//!
//! A technology model ([`TechReport`]) estimates 4-LUT count, flip-flops,
//! logic depth and fmax in the spirit of the paper's Xilinx XC4000 target.

use std::fmt;

/// Identifies a combinational node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(u32);

impl RegId {
    /// Raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a primary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputId(u32);

impl InputId {
    /// Raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Word-level combinational operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Addition (wrapping at width).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (low bits).
    Mul,
    /// Signed division; division by zero yields 0 (documented hardware
    /// convention).
    Div,
    /// Signed remainder; by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift by a constant amount (free wiring).
    Shl,
    /// Arithmetic right shift by a constant amount.
    Shr,
    /// Equality (1-bit result).
    Eq,
    /// Signed less-than (1-bit result).
    Lt,
    /// Signed less-or-equal (1-bit result).
    Le,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

/// A combinational node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Constant word.
    Const(u64),
    /// Primary input.
    Input(InputId),
    /// Current value of a register.
    ReadReg(RegId),
    /// Bitwise complement (width-masked). For 1-bit nodes this is logical
    /// not.
    Not(NodeId),
    /// Arithmetic negation.
    Neg(NodeId),
    /// Binary operation.
    Bin(Op, NodeId, NodeId),
    /// 2:1 multiplexer: `sel ? t : f` (sel must be 1-bit).
    Mux(NodeId, NodeId, NodeId),
    /// Width adaptation (zero-extend or truncate to the node's width);
    /// free wiring in the fabric.
    Resize(NodeId),
}

#[derive(Debug, Clone)]
struct NodeDef {
    node: Node,
    width: u32,
}

#[derive(Debug, Clone)]
struct RegDef {
    name: String,
    width: u32,
    init: u64,
    next: Option<NodeId>,
}

/// An executable RTL netlist.
///
/// # Examples
///
/// A 4-bit counter:
///
/// ```
/// use cosma_synth::{Netlist, Op};
///
/// let mut n = Netlist::new("counter");
/// let r = n.reg("COUNT", 4, 0);
/// let cur = n.read_reg(r);
/// let one = n.constant(1, 4);
/// let next = n.bin(Op::Add, cur, one);
/// n.set_reg_next(r, next);
/// n.mark_output("COUNT", cur);
///
/// let mut sim = n.simulator();
/// for _ in 0..5 { sim.step(&[]); }
/// assert_eq!(sim.reg_value(r), 5);
/// for _ in 0..11 { sim.step(&[]); }
/// assert_eq!(sim.reg_value(r), 0, "wraps at width");
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<NodeDef>,
    regs: Vec<RegDef>,
    inputs: Vec<(String, u32)>,
    outputs: Vec<(String, NodeId)>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nodes: vec![],
            regs: vec![],
            inputs: vec![],
            outputs: vec![],
        }
    }

    /// Netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, node: Node, width: u32) -> NodeId {
        assert!((1..=64).contains(&width), "node width must be 1..=64");
        self.nodes.push(NodeDef { node, width });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Adds a constant node.
    pub fn constant(&mut self, value: u64, width: u32) -> NodeId {
        self.push(Node::Const(value & mask(width)), width)
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> (InputId, NodeId) {
        let id = InputId(self.inputs.len() as u32);
        self.inputs.push((name.into(), width));
        let node = self.push(Node::Input(id), width);
        (id, node)
    }

    /// Declares a register.
    pub fn reg(&mut self, name: impl Into<String>, width: u32, init: u64) -> RegId {
        let id = RegId(self.regs.len() as u32);
        self.regs.push(RegDef {
            name: name.into(),
            width,
            init: init & mask(width),
            next: None,
        });
        id
    }

    /// Node reading a register's current value.
    pub fn read_reg(&mut self, r: RegId) -> NodeId {
        let width = self.regs[r.index()].width;
        self.push(Node::ReadReg(r), width)
    }

    /// Sets a register's next-value node.
    ///
    /// # Panics
    ///
    /// Panics if widths mismatch.
    pub fn set_reg_next(&mut self, r: RegId, next: NodeId) {
        assert_eq!(
            self.regs[r.index()].width,
            self.nodes[next.index()].width,
            "register {} next-value width mismatch",
            self.regs[r.index()].name
        );
        self.regs[r.index()].next = Some(next);
    }

    /// Bitwise not.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        let w = self.nodes[a.index()].width;
        self.push(Node::Not(a), w)
    }

    /// Arithmetic negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let w = self.nodes[a.index()].width;
        self.push(Node::Neg(a), w)
    }

    /// Binary operation; result width is the max operand width, or 1 for
    /// comparisons.
    pub fn bin(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        let wa = self.nodes[a.index()].width;
        let wb = self.nodes[b.index()].width;
        let w = match op {
            Op::Eq | Op::Lt | Op::Le => 1,
            _ => wa.max(wb),
        };
        self.push(Node::Bin(op, a, b), w)
    }

    /// 2:1 mux.
    ///
    /// # Panics
    ///
    /// Panics if `sel` is not 1-bit wide.
    pub fn mux(&mut self, sel: NodeId, t: NodeId, f: NodeId) -> NodeId {
        assert_eq!(self.nodes[sel.index()].width, 1, "mux select must be 1-bit");
        let w = self.nodes[t.index()].width.max(self.nodes[f.index()].width);
        self.push(Node::Mux(sel, t, f), w)
    }

    /// Width adaptation: returns a node carrying `a` zero-extended or
    /// truncated to `width` (identity if already that width).
    pub fn resize(&mut self, a: NodeId, width: u32) -> NodeId {
        if self.nodes[a.index()].width == width {
            a
        } else {
            self.push(Node::Resize(a), width)
        }
    }

    /// Marks a node as a named output.
    pub fn mark_output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    /// Width of a node in bits.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    #[must_use]
    pub fn width(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].width
    }

    /// Number of combinational nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of registers.
    #[must_use]
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// Declared inputs `(name, width)`.
    #[must_use]
    pub fn inputs(&self) -> &[(String, u32)] {
        &self.inputs
    }

    /// Declared outputs `(name, node)`.
    #[must_use]
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Finds an output node by name.
    #[must_use]
    pub fn output(&self, name: &str) -> Option<NodeId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
    }

    /// Finds a register by name.
    #[must_use]
    pub fn find_reg(&self, name: &str) -> Option<RegId> {
        self.regs
            .iter()
            .position(|r| r.name == name)
            .map(|i| RegId(i as u32))
    }

    /// Finds an input index by name.
    #[must_use]
    pub fn find_input(&self, name: &str) -> Option<InputId> {
        self.inputs
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| InputId(i as u32))
    }

    /// All nodes with their widths, in id (topological) order — for
    /// text emitters.
    #[must_use]
    pub fn dump_nodes(&self) -> Vec<(Node, u32)> {
        self.nodes
            .iter()
            .map(|d| (d.node.clone(), d.width))
            .collect()
    }

    /// All registers as `(name, width, init)` — for text emitters.
    #[must_use]
    pub fn dump_regs(&self) -> Vec<(String, u32, u64)> {
        self.regs
            .iter()
            .map(|r| (r.name.clone(), r.width, r.init))
            .collect()
    }

    /// Next-value node of a register, by name.
    #[must_use]
    pub fn reg_next_of(&self, name: &str) -> Option<NodeId> {
        self.regs
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.next)
    }

    /// Creates a cycle-accurate simulator for this netlist (the netlist
    /// is cloned so the simulator is self-contained and storable).
    #[must_use]
    pub fn simulator(&self) -> NetlistSim {
        let n = self.nodes.len();
        let mut dirty = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = dirty.last_mut() {
            *last >>= (64 - n % 64) % 64;
        }
        NetlistSim {
            reg_values: self.regs.iter().map(|r| r.init).collect(),
            node_values: vec![0; n],
            inputs: vec![0; self.inputs.len()],
            readers: Readers::of(self),
            dirty,
            settled: false,
            cycles: 0,
            evaluations: 0,
            netlist: self.clone(),
        }
    }

    /// Technology-maps the netlist onto 4-LUT logic and reports
    /// area/depth/fmax estimates (XC4000-style model; see [`TechReport`]).
    #[must_use]
    pub fn tech_report(&self) -> TechReport {
        let mut luts = 0u64;
        let mut depth = vec![0u32; self.nodes.len()];
        let mut max_depth = 0u32;
        for (i, def) in self.nodes.iter().enumerate() {
            let w = def.width as u64;
            let (cost, levels, deps): (u64, u32, Vec<NodeId>) = match &def.node {
                Node::Const(_) | Node::Input(_) | Node::ReadReg(_) => (0, 0, vec![]),
                Node::Resize(a) => (0, 0, vec![*a]),
                Node::Not(a) => (w, 1, vec![*a]),
                Node::Neg(a) => (w, 1 + def.width.div_ceil(8), vec![*a]),
                Node::Mux(s, t, f) => (w, 1, vec![*s, *t, *f]),
                Node::Bin(op, a, b) => {
                    let (c, l) = match op {
                        Op::And | Op::Or | Op::Xor => (w, 1),
                        Op::Add | Op::Sub => (w, 1 + def.width.div_ceil(8)),
                        Op::Min | Op::Max => (2 * w, 2 + def.width.div_ceil(8)),
                        Op::Mul => (w * w / 2, 2 * log2_ceil(def.width.max(2))),
                        Op::Div | Op::Rem => (w * w, 3 * log2_ceil(def.width.max(2))),
                        Op::Eq => (w / 3 + 1, log2_ceil(def.width.max(2))),
                        Op::Lt | Op::Le => {
                            let wa = self.nodes[a.index()].width as u64;
                            (wa, 1 + self.nodes[a.index()].width.div_ceil(8))
                        }
                        Op::Shl | Op::Shr => (0, 0),
                    };
                    (c, l, vec![*a, *b])
                }
            };
            luts += cost;
            let in_depth = deps.iter().map(|d| depth[d.index()]).max().unwrap_or(0);
            depth[i] = in_depth + levels;
            max_depth = max_depth.max(depth[i]);
        }
        let ffs: u64 = self.regs.iter().map(|r| u64::from(r.width)).sum();
        // XC4000 CLB: two 4-LUTs + two FFs per CLB.
        let clbs = (luts / 2).max(ffs / 2).max(1);
        // Delay model: 1.5 ns per LUT level + 2 ns clock-to-out/setup.
        let crit_ns = 2.0 + 1.5 * f64::from(max_depth);
        let fmax_mhz = 1000.0 / crit_ns;
        TechReport {
            luts,
            ffs,
            clbs,
            depth: max_depth,
            crit_ns,
            fmax_mhz,
        }
    }
}

/// Technology-mapping estimate (4-LUT fabric, XC4000-style CLBs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechReport {
    /// Estimated 4-input LUTs.
    pub luts: u64,
    /// Flip-flops (total register bits).
    pub ffs: u64,
    /// Estimated CLBs (2 LUTs + 2 FFs each).
    pub clbs: u64,
    /// Combinational depth in LUT levels.
    pub depth: u32,
    /// Critical path estimate in nanoseconds.
    pub crit_ns: f64,
    /// Maximum clock frequency estimate in MHz.
    pub fmax_mhz: f64,
}

impl fmt::Display for TechReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUTs, {} FFs, {} CLBs, depth {}, {:.1} ns ({:.1} MHz)",
            self.luts, self.ffs, self.clbs, self.depth, self.crit_ns, self.fmax_mhz
        )
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn sign_extend(v: u64, width: u32) -> i64 {
    if width >= 64 {
        return v as i64;
    }
    let sign = 1u64 << (width - 1);
    if v & sign != 0 {
        (v | !mask(width)) as i64
    } else {
        v as i64
    }
}

/// Calls `f` with each reader-table source `node` reads: an operand
/// node by its index, input `i` as `nodes + i` and register `r` as
/// `nodes + inputs + r`.
fn for_each_source(node: &Node, nodes: usize, inputs: usize, mut f: impl FnMut(usize)) {
    match *node {
        Node::Const(_) => {}
        Node::Input(id) => f(nodes + id.index()),
        Node::ReadReg(r) => f(nodes + inputs + r.index()),
        Node::Not(a) | Node::Neg(a) | Node::Resize(a) => f(a.index()),
        Node::Bin(_, a, b) => {
            f(a.index());
            f(b.index());
        }
        Node::Mux(sel, t, e) => {
            f(sel.index());
            f(t.index());
            f(e.index());
        }
    }
}

/// The nodes that read each value a step can change, as one CSR table:
/// the readers of source `s` (see [`for_each_source`]) are
/// `list[start[s]..start[s + 1]]`.
#[derive(Debug, Clone)]
struct Readers {
    start: Vec<u32>,
    list: Vec<u32>,
}

impl Readers {
    /// Builds the table in two passes over the nodes: count each
    /// source's readers into its slot and turn the counts into running
    /// ends, then file every reader backwards from its source's end,
    /// which leaves each slot at its source's start.
    fn of(nl: &Netlist) -> Self {
        let (nodes, inputs) = (nl.nodes.len(), nl.inputs.len());
        let mut start = vec![0u32; nodes + inputs + nl.regs.len() + 1];
        for def in &nl.nodes {
            for_each_source(&def.node, nodes, inputs, |s| start[s] += 1);
        }
        let mut end = 0;
        for slot in &mut start {
            end += *slot;
            *slot = end;
        }
        let mut list = vec![0u32; end as usize];
        for (i, def) in nl.nodes.iter().enumerate().rev() {
            for_each_source(&def.node, nodes, inputs, |s| {
                start[s] -= 1;
                list[start[s] as usize] = i as u32;
            });
        }
        Readers { start, list }
    }

    /// Marks every reader of source `s` dirty.
    fn mark(&self, s: usize, dirty: &mut [u64]) {
        for &r in &self.list[self.start[s] as usize..self.start[s + 1] as usize] {
            dirty[r as usize / 64] |= 1 << (r % 64);
        }
    }
}

/// The value node `i` computes from its operands' current values.
fn eval_node(nodes: &[NodeDef], i: usize, values: &[u64], inputs: &[u64], regs: &[u64]) -> u64 {
    let def = &nodes[i];
    let v = match &def.node {
        Node::Const(c) => *c,
        Node::Input(id) => inputs[id.index()],
        Node::ReadReg(r) => regs[r.index()],
        Node::Resize(a) => values[a.index()],
        Node::Not(a) => !values[a.index()],
        Node::Neg(a) => (values[a.index()] as i64).wrapping_neg() as u64,
        Node::Mux(s, t, f) => {
            if values[s.index()] & 1 == 1 {
                values[t.index()]
            } else {
                values[f.index()]
            }
        }
        Node::Bin(op, a, b) => {
            let ua = values[a.index()];
            let ub = values[b.index()];
            let sa = sign_extend(ua, nodes[a.index()].width);
            let sb = sign_extend(ub, nodes[b.index()].width);
            match op {
                Op::Add => (sa.wrapping_add(sb)) as u64,
                Op::Sub => (sa.wrapping_sub(sb)) as u64,
                Op::Mul => (sa.wrapping_mul(sb)) as u64,
                Op::Div => {
                    if sb == 0 {
                        0
                    } else {
                        sa.wrapping_div(sb) as u64
                    }
                }
                Op::Rem => {
                    if sb == 0 {
                        0
                    } else {
                        sa.wrapping_rem(sb) as u64
                    }
                }
                Op::And => ua & ub,
                Op::Or => ua | ub,
                Op::Xor => ua ^ ub,
                Op::Shl => ua.wrapping_shl(ub as u32 & 63),
                Op::Shr => (sa >> (ub as u32 & 63)) as u64,
                Op::Eq => u64::from(ua == ub),
                Op::Lt => u64::from(sa < sb),
                Op::Le => u64::from(sa <= sb),
                Op::Min => sa.min(sb) as u64,
                Op::Max => sa.max(sb) as u64,
            }
        }
    };
    v & mask(def.width)
}

/// Cycle-accurate evaluation state for a [`Netlist`], owning its netlist.
#[derive(Debug, Clone)]
pub struct NetlistSim {
    netlist: Netlist,
    reg_values: Vec<u64>,
    node_values: Vec<u64>,
    /// Masked inputs of the last evaluated step.
    inputs: Vec<u64>,
    /// Which nodes read each node, input and register.
    readers: Readers,
    /// One bit per node, set while an operand changed since the node was
    /// last evaluated (every node before the first step).
    dirty: Vec<u64>,
    /// Whether the last evaluated step left every register unchanged.
    settled: bool,
    cycles: u64,
    evaluations: u64,
}

impl NetlistSim {
    /// The simulated netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Runs one clock cycle with the given input values (by input
    /// declaration order; missing inputs read 0).
    ///
    /// An evaluated step recomputes only the *dirty* nodes, those with
    /// an operand that changed since they were last computed, in index
    /// (topological) order. A changed masked input, a register that
    /// loads a new value and [`set_reg`](NetlistSim::set_reg) mark their
    /// readers dirty, and a node whose value changes marks its own, so
    /// node values and registers end each step exactly as evaluating
    /// every node would leave them.
    ///
    /// A step is skipped, only advancing [`cycles`](NetlistSim::cycles),
    /// when the last evaluated step left every register unchanged and the
    /// masked inputs equal that step's. The skip is exact: node values
    /// are a function of the masked inputs and the registers, so
    /// evaluating would reproduce the current node values and registers
    /// bit for bit. [`set_reg`](NetlistSim::set_reg) ends the settled
    /// state.
    pub fn step(&mut self, inputs: &[u64]) {
        let nl = &self.netlist;
        let nodes = nl.nodes.len();
        self.cycles += 1;
        let mut same_inputs = true;
        for (i, (held, (_, width))) in self.inputs.iter_mut().zip(&nl.inputs).enumerate() {
            let v = inputs.get(i).copied().unwrap_or(0) & mask(*width);
            if *held != v {
                *held = v;
                same_inputs = false;
                self.readers.mark(nodes + i, &mut self.dirty);
            }
        }
        if self.settled && same_inputs {
            return;
        }
        self.evaluations += 1;
        // Readers come after the nodes they read, so a node dirtied here
        // lies ahead of the scan: in a later word, or in this word above
        // the bit just cleared, which the next pass rereads.
        let mut w = 0;
        while w < self.dirty.len() {
            let bits = self.dirty[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.dirty[w] = bits & (bits - 1);
            let i = w * 64 + bits.trailing_zeros() as usize;
            let v = eval_node(
                &nl.nodes,
                i,
                &self.node_values,
                &self.inputs,
                &self.reg_values,
            );
            if v != self.node_values[i] {
                self.node_values[i] = v;
                self.readers.mark(i, &mut self.dirty);
            }
        }
        // Clock edge: registers load next values simultaneously.
        let mut settled = true;
        for (i, reg) in nl.regs.iter().enumerate() {
            if let Some(next) = reg.next {
                let v = self.node_values[next.index()] & mask(reg.width);
                if v != self.reg_values[i] {
                    settled = false;
                    self.reg_values[i] = v;
                    self.readers
                        .mark(nodes + nl.inputs.len() + i, &mut self.dirty);
                }
            }
        }
        self.settled = settled;
    }

    /// Current register value.
    #[must_use]
    pub fn reg_value(&self, r: RegId) -> u64 {
        self.reg_values[r.index()]
    }

    /// Value a node computed during the last [`step`](NetlistSim::step).
    #[must_use]
    pub fn node_value(&self, n: NodeId) -> u64 {
        self.node_values[n.index()]
    }

    /// Value of a named output after the last step.
    #[must_use]
    pub fn output_value(&self, name: &str) -> Option<u64> {
        self.netlist.output(name).map(|n| self.node_value(n))
    }

    /// Forces a register value (reset/test). The next step evaluates.
    pub fn set_reg(&mut self, r: RegId, v: u64) {
        let nl = &self.netlist;
        let v = v & mask(nl.regs[r.index()].width);
        if v != self.reg_values[r.index()] {
            self.reg_values[r.index()] = v;
            let source = nl.nodes.len() + nl.inputs.len() + r.index();
            self.readers.mark(source, &mut self.dirty);
        }
        self.settled = false;
    }

    /// Cycles executed, skipped steps included.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Steps actually evaluated, however few nodes each recomputed;
    /// `cycles() - evaluations()` were skipped as settled.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

fn log2_ceil(x: u32) -> u32 {
    32 - (x - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert_eq, ProptestConfig, TestRng, TestRunner};

    /// The full-evaluation step [`NetlistSim::step`] must agree with: the
    /// settled skip, then every node recomputed in index order, then the
    /// clock edge.
    fn step_full(sim: &mut NetlistSim, inputs: &[u64]) {
        let nl = &sim.netlist;
        sim.cycles += 1;
        let mut same_inputs = true;
        for (i, (held, (_, width))) in sim.inputs.iter_mut().zip(&nl.inputs).enumerate() {
            let v = inputs.get(i).copied().unwrap_or(0) & mask(*width);
            if *held != v {
                *held = v;
                same_inputs = false;
            }
        }
        if sim.settled && same_inputs {
            return;
        }
        sim.evaluations += 1;
        for i in 0..nl.nodes.len() {
            sim.node_values[i] =
                eval_node(&nl.nodes, i, &sim.node_values, &sim.inputs, &sim.reg_values);
        }
        let mut settled = true;
        for (i, reg) in nl.regs.iter().enumerate() {
            if let Some(next) = reg.next {
                let v = sim.node_values[next.index()] & mask(reg.width);
                settled &= v == sim.reg_values[i];
                sim.reg_values[i] = v;
            }
        }
        sim.settled = settled;
    }

    const OPS: [Op; 15] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Rem,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shl,
        Op::Shr,
        Op::Eq,
        Op::Lt,
        Op::Le,
        Op::Min,
        Op::Max,
    ];

    /// A random netlist holding every [`Node`] kind and every [`Op`] at
    /// least once, 1–63 bits wide, with 1–4 inputs and 1–4 registers:
    /// some load a random node, some hold their value through their own
    /// read, and some have no next value at all.
    fn random_netlist(rng: &mut TestRng) -> Netlist {
        fn width(rng: &mut TestRng) -> u32 {
            1 + rng.below(63) as u32
        }
        fn pick(rng: &mut TestRng, n: &Netlist) -> NodeId {
            NodeId(rng.below(n.node_count() as u64) as u32)
        }
        let mut n = Netlist::new("random");
        for i in 0..1 + rng.below(4) {
            let w = width(rng);
            n.input(format!("I{i}"), w);
        }
        let regs: Vec<RegId> = (0..1 + rng.below(4))
            .map(|i| {
                let w = width(rng);
                let r = n.reg(format!("R{i}"), w, rng.next_u64());
                n.read_reg(r);
                r
            })
            .collect();
        // Kinds 0–4 are `Const`, `ReadReg`, `Not`, `Neg`, `Mux`; 5 is
        // `Resize`; from 6 on, `Bin` with `OPS[k - 6]`.
        let kinds = 6 + OPS.len() as u64;
        let mut order: Vec<u64> = (0..kinds).collect();
        order.extend((0..rng.below(40)).map(|_| rng.below(kinds)));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for k in order {
            match k {
                0 => {
                    let w = width(rng);
                    n.constant(rng.next_u64(), w);
                }
                1 => {
                    n.read_reg(regs[rng.below(regs.len() as u64) as usize]);
                }
                2 => {
                    let a = pick(rng, &n);
                    n.not(a);
                }
                3 => {
                    let a = pick(rng, &n);
                    n.neg(a);
                }
                4 => {
                    let s = pick(rng, &n);
                    let sel = n.resize(s, 1);
                    let (t, f) = (pick(rng, &n), pick(rng, &n));
                    n.mux(sel, t, f);
                }
                5 => {
                    let a = pick(rng, &n);
                    let w = width(rng);
                    let w = if w == n.width(a) { w % 63 + 1 } else { w };
                    n.resize(a, w);
                }
                _ => {
                    let (a, b) = (pick(rng, &n), pick(rng, &n));
                    n.bin(OPS[(k - 6) as usize], a, b);
                }
            }
        }
        for &r in &regs {
            let w = n.regs[r.index()].width;
            match rng.below(3) {
                0 => {}
                1 => {
                    let cur = n.read_reg(r);
                    n.set_reg_next(r, cur);
                }
                _ => {
                    let a = pick(rng, &n);
                    let next = n.resize(a, w);
                    n.set_reg_next(r, next);
                }
            }
        }
        n
    }

    #[test]
    fn change_driven_step_matches_full_evaluation() {
        let mut skipped = 0;
        TestRunner::new(ProptestConfig::with_cases(200)).run(|rng| {
            let nl = random_netlist(rng);
            let (mut sim, mut oracle) = (nl.simulator(), nl.simulator());
            let mut inputs: Vec<u64> = (0..nl.inputs().len()).map(|_| rng.next_u64()).collect();
            for step in 0..64 {
                // Half the steps change a random subset of the inputs,
                // with bits past each input's width.
                if rng.below(2) == 0 {
                    for v in &mut inputs {
                        if rng.below(3) == 0 {
                            *v = rng.next_u64();
                        }
                    }
                }
                if rng.below(16) == 0 {
                    let r = RegId(rng.below(nl.reg_count() as u64) as u32);
                    let v = match rng.below(2) {
                        0 => sim.reg_value(r),
                        _ => rng.next_u64(),
                    };
                    sim.set_reg(r, v);
                    oracle.set_reg(r, v);
                }
                // Now and then a short slice: the missing inputs read 0.
                let given = match rng.below(8) {
                    0 => &inputs[..rng.below(inputs.len() as u64 + 1) as usize],
                    _ => &inputs[..],
                };
                sim.step(given);
                step_full(&mut oracle, given);
                prop_assert_eq!(&sim.node_values, &oracle.node_values, "step {}", step);
                prop_assert_eq!(&sim.reg_values, &oracle.reg_values, "step {}", step);
                prop_assert_eq!(
                    (sim.cycles(), sim.evaluations()),
                    (oracle.cycles(), oracle.evaluations()),
                    "step {}",
                    step
                );
            }
            skipped += sim.cycles() - sim.evaluations();
            Ok(())
        });
        assert!(skipped > 0, "some steps are skipped as settled");
    }

    #[test]
    fn counter_counts_and_wraps() {
        let mut n = Netlist::new("ctr");
        let r = n.reg("C", 3, 0);
        let cur = n.read_reg(r);
        let one = n.constant(1, 3);
        let next = n.bin(Op::Add, cur, one);
        n.set_reg_next(r, next);
        let mut sim = n.simulator();
        for _ in 0..10 {
            sim.step(&[]);
        }
        assert_eq!(sim.reg_value(r), 2); // 10 mod 8
        assert_eq!(sim.cycles(), 10);
        assert_eq!(sim.evaluations(), 10, "a counter never settles");
    }

    #[test]
    fn settled_steps_are_skipped_until_inputs_or_registers_change() {
        // Y = X + R, where R holds its value.
        let mut n = Netlist::new("hold");
        let (_, x) = n.input("X", 8);
        let r = n.reg("R", 8, 0);
        let cur = n.read_reg(r);
        n.set_reg_next(r, cur);
        let y = n.bin(Op::Add, x, cur);
        n.mark_output("Y", y);
        let mut sim = n.simulator();
        for _ in 0..3 {
            sim.step(&[3]);
        }
        assert_eq!(sim.output_value("Y"), Some(3));
        assert_eq!((sim.cycles(), sim.evaluations()), (3, 1));
        // Inputs compare after masking: 0x103 is 3 on an 8-bit input.
        sim.step(&[0x103]);
        assert_eq!((sim.cycles(), sim.evaluations()), (4, 1));

        sim.set_reg(r, 4);
        sim.step(&[3]);
        assert_eq!(
            sim.output_value("Y"),
            Some(7),
            "set_reg ends the settled state"
        );
        assert_eq!((sim.cycles(), sim.evaluations()), (5, 2));
        sim.step(&[3]);
        assert_eq!((sim.cycles(), sim.evaluations()), (6, 2));

        sim.step(&[5]);
        assert_eq!(sim.output_value("Y"), Some(9));
        assert_eq!(sim.reg_value(r), 4);
        assert_eq!((sim.cycles(), sim.evaluations()), (7, 3));
    }

    #[test]
    fn mux_selects() {
        let mut n = Netlist::new("mux");
        let (_, sel) = n.input("SEL", 1);
        let a = n.constant(5, 8);
        let b = n.constant(9, 8);
        let m = n.mux(sel, a, b);
        n.mark_output("Y", m);
        let mut sim = n.simulator();
        sim.step(&[0]);
        assert_eq!(sim.output_value("Y"), Some(9));
        sim.step(&[1]);
        assert_eq!(sim.output_value("Y"), Some(5));
    }

    #[test]
    fn signed_comparison() {
        let mut n = Netlist::new("cmp");
        let (_, x) = n.input("X", 16);
        let zero = n.constant(0, 16);
        let lt = n.bin(Op::Lt, x, zero);
        n.mark_output("NEG", lt);
        let mut sim = n.simulator();
        sim.step(&[0xFFFF]); // -1
        assert_eq!(sim.output_value("NEG"), Some(1));
        sim.step(&[5]);
        assert_eq!(sim.output_value("NEG"), Some(0));
    }

    #[test]
    fn signed_arithmetic_wraps_at_width() {
        let mut n = Netlist::new("arith");
        let (_, x) = n.input("X", 16);
        let (_, y) = n.input("Y", 16);
        let s = n.bin(Op::Sub, x, y);
        let d = n.bin(Op::Div, x, y);
        n.mark_output("S", s);
        n.mark_output("D", d);
        let mut sim = n.simulator();
        sim.step(&[3, 5]);
        assert_eq!(sim.output_value("S"), Some(0xFFFE)); // -2 in 16 bits
        assert_eq!(sim.output_value("D"), Some(0));
        sim.step(&[0xFFF6, 3]); // -10 / 3 = -3
        assert_eq!(sim.output_value("D"), Some(0xFFFD));
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut n = Netlist::new("div0");
        let (_, x) = n.input("X", 16);
        let zero = n.constant(0, 16);
        let d = n.bin(Op::Div, x, zero);
        let r = n.bin(Op::Rem, x, zero);
        n.mark_output("D", d);
        n.mark_output("R", r);
        let mut sim = n.simulator();
        sim.step(&[7]);
        assert_eq!(sim.output_value("D"), Some(0));
        assert_eq!(sim.output_value("R"), Some(0));
    }

    #[test]
    fn registers_update_simultaneously() {
        // Swap: a <= b, b <= a each cycle.
        let mut n = Netlist::new("swap");
        let ra = n.reg("A", 8, 1);
        let rb = n.reg("B", 8, 2);
        let va = n.read_reg(ra);
        let vb = n.read_reg(rb);
        n.set_reg_next(ra, vb);
        n.set_reg_next(rb, va);
        let mut sim = n.simulator();
        sim.step(&[]);
        assert_eq!((sim.reg_value(ra), sim.reg_value(rb)), (2, 1));
        sim.step(&[]);
        assert_eq!((sim.reg_value(ra), sim.reg_value(rb)), (1, 2));
    }

    #[test]
    fn tech_report_scales_with_logic() {
        let mut small = Netlist::new("small");
        let (_, a) = small.input("A", 8);
        let (_, b) = small.input("B", 8);
        let x = small.bin(Op::And, a, b);
        small.mark_output("X", x);

        let mut big = Netlist::new("big");
        let (_, a) = big.input("A", 16);
        let (_, b) = big.input("B", 16);
        let m = big.bin(Op::Mul, a, b);
        let s = big.bin(Op::Add, m, a);
        let r = big.reg("ACC", 16, 0);
        big.set_reg_next(r, s);

        let rs = small.tech_report();
        let rb = big.tech_report();
        assert!(rb.luts > rs.luts);
        assert!(rb.depth > rs.depth);
        assert!(rb.fmax_mhz < rs.fmax_mhz);
        assert_eq!(rb.ffs, 16);
        assert!(rb.to_string().contains("LUTs"));
    }

    #[test]
    fn shifts_are_free_wiring() {
        let mut n = Netlist::new("shift");
        let (_, a) = n.input("A", 16);
        let k = n.constant(2, 16);
        let s = n.bin(Op::Shl, a, k);
        n.mark_output("S", s);
        let report = n.tech_report();
        assert_eq!(report.luts, 0);
        let mut sim = n.simulator();
        sim.step(&[3]);
        assert_eq!(sim.output_value("S"), Some(12));
    }

    #[test]
    fn lookup_by_name() {
        let mut n = Netlist::new("names");
        let r = n.reg("STATE", 4, 2);
        let (i, _) = n.input("GO", 1);
        assert_eq!(n.find_reg("STATE"), Some(r));
        assert_eq!(n.find_input("GO"), Some(i));
        assert_eq!(n.find_reg("NOPE"), None);
        let sim = n.simulator();
        assert_eq!(sim.reg_value(r), 2, "init value");
    }

    #[test]
    #[should_panic(expected = "mux select")]
    fn wide_mux_select_panics() {
        let mut n = Netlist::new("bad");
        let a = n.constant(1, 8);
        let _ = n.mux(a, a, a);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn reg_width_mismatch_panics() {
        let mut n = Netlist::new("bad");
        let r = n.reg("R", 8, 0);
        let c = n.constant(1, 4);
        n.set_reg_next(r, c);
    }
}
