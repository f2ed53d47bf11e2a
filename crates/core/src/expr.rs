//! Expressions of the unified IR and their evaluation.
//!
//! Expressions are shared by module FSMs, communication-unit controllers
//! and service protocol FSMs. They are deliberately side-effect free; all
//! state changes go through [`crate::stmt::Stmt`].

use crate::bit::Bit;
use crate::ids::{PortId, VarId};
use crate::value::{Type, Value, ValueError};
use std::fmt;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation of integers.
    Neg,
    /// Bitwise/logical not: bits via 4-valued `not`, bools via `!`,
    /// integers via bitwise complement.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (trapping on division by zero).
    Div,
    /// Integer remainder (trapping on division by zero).
    Rem,
    /// Bitwise/logical and (bits, bools, integers).
    And,
    /// Bitwise/logical or.
    Or,
    /// Bitwise/logical xor.
    Xor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Equality (any two values of the same kind).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than (integers).
    Lt,
    /// Less-or-equal (integers).
    Le,
    /// Greater-than (integers).
    Gt,
    /// Greater-or-equal (integers).
    Ge,
    /// Minimum of two integers (used by datapath synthesis).
    Min,
    /// Maximum of two integers.
    Max,
}

impl BinOp {
    /// Whether the operator produces a boolean result.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// An IR expression tree.
///
/// # Examples
///
/// Build `(count + 1) < limit` over two variables:
///
/// ```
/// use cosma_core::{Expr, BinOp};
/// use cosma_core::ids::VarId;
///
/// let count = VarId::new(0);
/// let limit = VarId::new(1);
/// let e = Expr::var(count).add(Expr::int(1)).lt(Expr::var(limit));
/// assert!(matches!(e, Expr::Binary(BinOp::Lt, _, _)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// A module/unit variable read.
    Var(VarId),
    /// A port or internal-wire read.
    Port(PortId),
    /// A service formal argument (position in the call's argument list).
    Arg(u32),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // `add`/`sub`/... are the expression-builder DSL
impl Expr {
    /// Integer literal.
    #[must_use]
    pub fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    /// Bit literal.
    #[must_use]
    pub fn bit(b: Bit) -> Expr {
        Expr::Const(Value::Bit(b))
    }

    /// Boolean literal.
    #[must_use]
    pub fn bool(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }

    /// Variable read.
    #[must_use]
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Port read.
    #[must_use]
    pub fn port(p: PortId) -> Expr {
        Expr::Port(p)
    }

    /// Service argument read.
    #[must_use]
    pub fn arg(i: u32) -> Expr {
        Expr::Arg(i)
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// `self + rhs`.
    #[must_use]
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }

    /// `self - rhs`.
    #[must_use]
    pub fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }

    /// `self * rhs`.
    #[must_use]
    pub fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }

    /// `self / rhs`.
    #[must_use]
    pub fn div(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Div, rhs)
    }

    /// `self == rhs`.
    #[must_use]
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }

    /// `self != rhs`.
    #[must_use]
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }

    /// `self < rhs`.
    #[must_use]
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }

    /// `self <= rhs`.
    #[must_use]
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }

    /// `self > rhs`.
    #[must_use]
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }

    /// `self >= rhs`.
    #[must_use]
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }

    /// Logical/bitwise `self & rhs`.
    #[must_use]
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }

    /// Logical/bitwise `self | rhs`.
    #[must_use]
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }

    /// Negation (`!self` / `-self` depending on operand kind).
    #[must_use]
    pub fn not(self) -> Expr {
        Expr::Unary(UnOp::Not, Box::new(self))
    }

    /// Arithmetic negation.
    #[must_use]
    pub fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }

    /// Evaluates the expression against an environment.
    ///
    /// The leaf operands of a unary or binary node (`Const`, `Var`,
    /// `Port`, `Arg`) are read in place, lent by the environment
    /// ([`ReadEnv`]); a value is cloned only when a leaf is the whole
    /// expression. Operands are evaluated left to right and nothing
    /// short-circuits: `false and (x / 0)` fails with
    /// [`EvalError::DivisionByZero`].
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on type mismatches, division by zero, or
    /// out-of-range variable/port/argument references.
    pub fn eval(&self, env: &dyn ReadEnv) -> Result<Value, EvalError> {
        match self {
            Expr::Unary(op, e) => eval_unary(*op, e.operand(env, &mut None)?),
            Expr::Binary(op, a, b) => {
                let (mut held_a, mut held_b) = (None, None);
                let a = a.operand(env, &mut held_a)?;
                eval_binary(*op, a, b.operand(env, &mut held_b)?)
            }
            Expr::Const(_) | Expr::Var(_) | Expr::Port(_) | Expr::Arg(_) => {
                self.operand(env, &mut None).cloned()
            }
        }
    }

    /// The value of an operand: a leaf read in place, or an interior
    /// node evaluated into `held`.
    fn operand<'a>(
        &'a self,
        env: &'a dyn ReadEnv,
        held: &'a mut Option<Value>,
    ) -> Result<&'a Value, EvalError> {
        match self {
            Expr::Const(v) => Ok(v),
            Expr::Var(v) => env.read_var(*v).ok_or(EvalError::NoSuchVar(*v)),
            Expr::Port(p) => env.read_port(*p).ok_or(EvalError::NoSuchPort(*p)),
            Expr::Arg(i) => env.read_arg(*i).ok_or(EvalError::NoSuchArg(*i)),
            Expr::Unary(..) | Expr::Binary(..) => Ok(held.insert(self.eval(env)?)),
        }
    }

    /// Visits every variable read in the expression.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Var(v) => f(*v),
            Expr::Unary(_, e) => e.for_each_var(f),
            Expr::Binary(_, a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Expr::Const(_) | Expr::Port(_) | Expr::Arg(_) => {}
        }
    }

    /// Visits every port read in the expression.
    pub fn for_each_port(&self, f: &mut impl FnMut(PortId)) {
        match self {
            Expr::Port(p) => f(*p),
            Expr::Unary(_, e) => e.for_each_port(f),
            Expr::Binary(_, a, b) => {
                a.for_each_port(f);
                b.for_each_port(f);
            }
            Expr::Const(_) | Expr::Var(_) | Expr::Arg(_) => {}
        }
    }

    /// Maximum argument index referenced, if any (for arity checks).
    #[must_use]
    pub fn max_arg(&self) -> Option<u32> {
        match self {
            Expr::Arg(i) => Some(*i),
            Expr::Unary(_, e) => e.max_arg(),
            Expr::Binary(_, a, b) => a.max_arg().into_iter().chain(b.max_arg()).max(),
            Expr::Const(_) | Expr::Var(_) | Expr::Port(_) => None,
        }
    }
}

/// Integer expression arithmetic is 16-bit two's-complement — the unified
/// model's native integer width — so the interpreter, the synthesized
/// netlists and the MC16 programs agree operation-for-operation.
fn wrap16(i: i64) -> i64 {
    i as i16 as i64
}

fn eval_unary(op: UnOp, v: &Value) -> Result<Value, EvalError> {
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(wrap16(i.wrapping_neg()))),
        (UnOp::Not, Value::Bit(b)) => Ok(Value::Bit(!*b)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::Not, Value::Int(i)) => Ok(Value::Int(!i)),
        (op, v) => Err(EvalError::BadOperand {
            op: format!("{op:?}"),
            operand: format!("{v}"),
        }),
    }
}

fn eval_binary(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    // Equality works across all same-kind values.
    if matches!(op, Eq | Ne) {
        let same = match (a, b) {
            (Value::Bit(x), Value::Bit(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Enum(x), Value::Enum(y)) => x == y,
            _ => {
                return Err(EvalError::BadOperand {
                    op: format!("{op:?}"),
                    operand: format!("{a} vs {b}"),
                })
            }
        };
        return Ok(Value::Bool(if op == Eq { same } else { !same }));
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            let (x, y) = (*x, *y);
            let v = match op {
                Add => Value::Int(wrap16(x.wrapping_add(y))),
                Sub => Value::Int(wrap16(x.wrapping_sub(y))),
                Mul => Value::Int(wrap16(x.wrapping_mul(y))),
                Div => {
                    if y == 0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    Value::Int(wrap16(x.wrapping_div(y)))
                }
                Rem => {
                    if y == 0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    Value::Int(wrap16(x.wrapping_rem(y)))
                }
                And => Value::Int(x & y),
                Or => Value::Int(x | y),
                Xor => Value::Int(x ^ y),
                Shl => Value::Int(wrap16(x.wrapping_shl(y as u32 & 63))),
                Shr => Value::Int(x.wrapping_shr(y as u32 & 63)),
                Lt => Value::Bool(x < y),
                Le => Value::Bool(x <= y),
                Gt => Value::Bool(x > y),
                Ge => Value::Bool(x >= y),
                Min => Value::Int(x.min(y)),
                Max => Value::Int(x.max(y)),
                Eq | Ne => unreachable!("handled above"),
            };
            Ok(v)
        }
        (Value::Bit(x), Value::Bit(y)) => {
            let v = match op {
                And => Value::Bit(*x & *y),
                Or => Value::Bit(*x | *y),
                Xor => Value::Bit(*x ^ *y),
                _ => {
                    return Err(EvalError::BadOperand {
                        op: format!("{op:?}"),
                        operand: format!("{a} vs {b}"),
                    })
                }
            };
            Ok(v)
        }
        (Value::Bool(x), Value::Bool(y)) => {
            let v = match op {
                And => Value::Bool(*x && *y),
                Or => Value::Bool(*x || *y),
                Xor => Value::Bool(*x ^ *y),
                _ => {
                    return Err(EvalError::BadOperand {
                        op: format!("{op:?}"),
                        operand: format!("{a} vs {b}"),
                    })
                }
            };
            Ok(v)
        }
        _ => Err(EvalError::BadOperand {
            op: format!("{op:?}"),
            operand: format!("{a} vs {b}"),
        }),
    }
}

/// Read access to the evaluation environment: variables, ports and service
/// arguments. Implemented by the interpreter contexts in `cosma-cosim`, by
/// the synthesis-time constant folder, and by test fixtures.
///
/// Reads *lend*: each method returns a reference into storage the
/// environment already owns (its variable table, a kernel signal, the
/// call's argument slice), and `None` means only that the id does not
/// exist here. [`Expr::eval`] turns `None` into
/// [`EvalError::NoSuchVar`], [`EvalError::NoSuchPort`] or
/// [`EvalError::NoSuchArg`], and copies a value only when a leaf is the
/// whole expression.
pub trait ReadEnv {
    /// Lends a variable's value; `None` when the id is unknown.
    fn read_var(&self, v: VarId) -> Option<&Value>;

    /// Lends a port's or wire's value; `None` when the id is unknown.
    fn read_port(&self, p: PortId) -> Option<&Value>;

    /// Lends a service call argument; `None` outside a service
    /// activation or past the argument list (the default).
    fn read_arg(&self, _index: u32) -> Option<&Value> {
        None
    }
}

/// Errors raised while evaluating expressions or executing statements.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Reference to a variable the environment does not know.
    NoSuchVar(VarId),
    /// Reference to a port the environment does not know.
    NoSuchPort(PortId),
    /// Reference to a missing service argument.
    NoSuchArg(u32),
    /// Operator applied to an operand of the wrong kind.
    BadOperand {
        /// Operator name.
        op: String,
        /// Operand display.
        operand: String,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// A guard evaluated to an unknown (`X`/`Z`) condition.
    UnknownCondition,
    /// Value-level error (enum variants, conversions).
    Value(ValueError),
    /// A service call failed (unbound unit, unknown service, arity).
    Service(String),
    /// A drive of a value that the driven signal's type does not admit,
    /// even after clamping (an integer onto a bit port, an enum onto an
    /// integer wire). The message names the signal, its type and the
    /// value.
    IncompatibleDrive(String),
}

impl EvalError {
    /// The refusal of a drive whose value the driven signal, wire or
    /// port's type does not admit ([`Type::admit`]): the message names
    /// `target` (for example `signal link.DATA`), the type and the
    /// value.
    #[cold]
    #[must_use]
    pub fn incompatible_drive(target: &dyn fmt::Display, ty: &Type, v: &Value) -> Self {
        EvalError::IncompatibleDrive(format!(
            "drive of {target} ({ty}) with incompatible value {v:?}"
        ))
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NoSuchVar(v) => write!(f, "no such variable {v:?}"),
            EvalError::NoSuchPort(p) => write!(f, "no such port {p:?}"),
            EvalError::NoSuchArg(i) => write!(f, "no such service argument #{i}"),
            EvalError::BadOperand { op, operand } => {
                write!(f, "operator {op} not applicable to {operand}")
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::UnknownCondition => write!(f, "condition evaluated to X/Z"),
            EvalError::Value(e) => write!(f, "{e}"),
            EvalError::Service(msg) => write!(f, "service call failed: {msg}"),
            EvalError::IncompatibleDrive(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ValueError> for EvalError {
    fn from(e: ValueError) -> Self {
        EvalError::Value(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedEnv {
        vars: Vec<Value>,
        ports: Vec<Value>,
        args: Vec<Value>,
    }

    impl ReadEnv for FixedEnv {
        fn read_var(&self, v: VarId) -> Option<&Value> {
            self.vars.get(v.index())
        }
        fn read_port(&self, p: PortId) -> Option<&Value> {
            self.ports.get(p.index())
        }
        fn read_arg(&self, i: u32) -> Option<&Value> {
            self.args.get(i as usize)
        }
    }

    fn env() -> FixedEnv {
        FixedEnv {
            vars: vec![Value::Int(10), Value::Int(3)],
            ports: vec![Value::Bit(Bit::One)],
            args: vec![Value::Int(300)],
        }
    }

    #[test]
    fn arithmetic() {
        let e = Expr::var(VarId::new(0))
            .add(Expr::var(VarId::new(1)))
            .mul(Expr::int(2));
        assert_eq!(e.eval(&env()).unwrap(), Value::Int(26));
        let d = Expr::var(VarId::new(0)).div(Expr::int(3));
        assert_eq!(d.eval(&env()).unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = Expr::int(1).div(Expr::int(0));
        assert_eq!(e.eval(&env()).unwrap_err(), EvalError::DivisionByZero);
        let e = Expr::Binary(BinOp::Rem, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(e.eval(&env()).unwrap_err(), EvalError::DivisionByZero);
    }

    #[test]
    fn comparisons() {
        let e = Expr::var(VarId::new(0)).gt(Expr::var(VarId::new(1)));
        assert_eq!(e.eval(&env()).unwrap(), Value::Bool(true));
        let e = Expr::int(5).le(Expr::int(5));
        assert_eq!(e.eval(&env()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn bit_equality_against_literal() {
        // The Fig. 3 idiom: B_FULL = '1'.
        let e = Expr::port(PortId::new(0)).eq(Expr::bit(Bit::One));
        assert_eq!(e.eval(&env()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn mixed_kind_comparison_is_error() {
        let e = Expr::int(1).eq(Expr::bit(Bit::One));
        assert!(e.eval(&env()).is_err());
    }

    #[test]
    fn args_read_through() {
        let e = Expr::arg(0).add(Expr::int(1));
        assert_eq!(e.eval(&env()).unwrap(), Value::Int(301));
        let e = Expr::arg(7);
        assert_eq!(e.eval(&env()).unwrap_err(), EvalError::NoSuchArg(7));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(Expr::int(5).neg().eval(&env()).unwrap(), Value::Int(-5));
        assert_eq!(
            Expr::bool(true).not().eval(&env()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::bit(Bit::Zero).not().eval(&env()).unwrap(),
            Value::Bit(Bit::One)
        );
        assert_eq!(Expr::int(0).not().eval(&env()).unwrap(), Value::Int(-1));
    }

    #[test]
    fn logic_on_bools_and_bits() {
        let t = Expr::bool(true);
        let f = Expr::bool(false);
        assert_eq!(
            t.clone().and(f.clone()).eval(&env()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(t.or(f).eval(&env()).unwrap(), Value::Bool(true));
        let one = Expr::bit(Bit::One);
        let x = Expr::bit(Bit::X);
        assert_eq!(one.and(x).eval(&env()).unwrap(), Value::Bit(Bit::X));
    }

    #[test]
    fn shifts_and_bitwise_ints() {
        assert_eq!(
            Expr::Binary(BinOp::Shl, Box::new(Expr::int(1)), Box::new(Expr::int(4)))
                .eval(&env())
                .unwrap(),
            Value::Int(16)
        );
        assert_eq!(
            Expr::Binary(
                BinOp::Xor,
                Box::new(Expr::int(0b1100)),
                Box::new(Expr::int(0b1010))
            )
            .eval(&env())
            .unwrap(),
            Value::Int(0b0110)
        );
    }

    #[test]
    fn min_max() {
        assert_eq!(
            Expr::Binary(BinOp::Min, Box::new(Expr::int(3)), Box::new(Expr::int(9)))
                .eval(&env())
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Expr::Binary(BinOp::Max, Box::new(Expr::int(3)), Box::new(Expr::int(9)))
                .eval(&env())
                .unwrap(),
            Value::Int(9)
        );
    }

    #[test]
    fn visitors_collect_reads() {
        let e = Expr::var(VarId::new(0))
            .add(Expr::var(VarId::new(1)))
            .lt(Expr::port(PortId::new(0)).eq(Expr::bit(Bit::One)).not());
        let mut vars = vec![];
        e.for_each_var(&mut |v| vars.push(v.index()));
        assert_eq!(vars, vec![0, 1]);
        let mut ports = vec![];
        e.for_each_port(&mut |p| ports.push(p.index()));
        assert_eq!(ports, vec![0]);
    }

    #[test]
    fn max_arg_detection() {
        assert_eq!(Expr::int(1).max_arg(), None);
        assert_eq!(Expr::arg(2).add(Expr::arg(5)).max_arg(), Some(5));
    }

    /// The by-value tree walker `Expr::eval` replaced: every node,
    /// leaves included, yields an owned value, left operand first.
    fn eval_by_value(e: &Expr, env: &dyn ReadEnv) -> Result<Value, EvalError> {
        match e {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(v) => env.read_var(*v).cloned().ok_or(EvalError::NoSuchVar(*v)),
            Expr::Port(p) => env.read_port(*p).cloned().ok_or(EvalError::NoSuchPort(*p)),
            Expr::Arg(i) => env.read_arg(*i).cloned().ok_or(EvalError::NoSuchArg(*i)),
            Expr::Unary(op, e) => eval_unary(*op, &eval_by_value(e, env)?),
            Expr::Binary(op, a, b) => {
                let a = eval_by_value(a, env)?;
                let b = eval_by_value(b, env)?;
                eval_binary(*op, &a, &b)
            }
        }
    }

    const UN_OPS: [UnOp; 2] = [UnOp::Neg, UnOp::Not];
    const BIN_OPS: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Min,
        BinOp::Max,
    ];

    /// Leaf values: every bit level, both bools, integers including
    /// zero divisors and values past 16 bits, and the variants of two
    /// enum types.
    fn leaf_values() -> Vec<Value> {
        use crate::value::{EnumType, EnumValue};
        let mut values: Vec<Value> = [Bit::Zero, Bit::One, Bit::X, Bit::Z]
            .into_iter()
            .map(Value::Bit)
            .collect();
        values.extend([Value::Bool(false), Value::Bool(true)]);
        values.extend(
            [0, 1, -1, 3, 16, 65, 32767, -32768, 70000, -70000]
                .into_iter()
                .map(Value::Int),
        );
        for (name, variants) in [("ST", ["IDLE", "BUSY"]), ("MODE", ["IDLE", "RUN"])] {
            let ty = EnumType::new(name, variants.map(String::from).to_vec());
            for v in variants {
                values.push(Value::Enum(EnumValue::new(ty.clone(), v).unwrap()));
            }
        }
        values
    }

    /// Random expression trees up to depth 4 whose leaves read present
    /// and missing var, port and arg ids of [`differential_env`].
    fn arb_expr() -> proptest::prelude::BoxedStrategy<Expr> {
        use proptest::prelude::*;
        let values = leaf_values();
        let leaf = prop_oneof![
            (0..values.len()).prop_map(move |i| Expr::Const(values[i].clone())),
            (0u32..4).prop_map(|i| Expr::var(VarId::new(i))),
            (0u32..4).prop_map(|i| Expr::port(PortId::new(i))),
            (0u32..4).prop_map(Expr::arg),
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (0..UN_OPS.len(), inner.clone())
                    .prop_map(|(op, e)| Expr::Unary(UN_OPS[op], Box::new(e))),
                (0..BIN_OPS.len(), inner.clone(), inner)
                    .prop_map(|(op, a, b)| { Expr::Binary(BIN_OPS[op], Box::new(a), Box::new(b)) }),
            ]
            .boxed()
        })
    }

    /// Three vars, three ports and two args, so id 3 of each (and arg 2)
    /// is missing.
    fn differential_env() -> FixedEnv {
        let values = leaf_values();
        FixedEnv {
            vars: vec![Value::Int(10), Value::Bool(false), values[16].clone()],
            ports: vec![Value::Bit(Bit::X), Value::Int(0), Value::Bool(true)],
            args: vec![Value::Int(70000), values[19].clone()],
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10_000))]
        #[test]
        fn eval_matches_the_by_value_walker(e in arb_expr()) {
            let env = differential_env();
            let text = |r: Result<Value, EvalError>| r.map_err(|err| err.to_string());
            proptest::prelude::prop_assert_eq!(
                text(e.eval(&env)),
                text(eval_by_value(&e, &env)),
                "{:?}",
                e
            );
        }
    }

    #[test]
    fn operands_evaluate_left_to_right_without_short_circuit() {
        let e = Expr::bool(false).and(Expr::int(1).div(Expr::int(0)));
        assert_eq!(e.eval(&env()).unwrap_err(), EvalError::DivisionByZero);
        let e = Expr::var(VarId::new(9)).add(Expr::port(PortId::new(9)));
        assert_eq!(
            e.eval(&env()).unwrap_err(),
            EvalError::NoSuchVar(VarId::new(9))
        );
    }
}
