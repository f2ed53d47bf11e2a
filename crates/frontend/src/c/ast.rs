//! Abstract syntax tree for the C subset.

/// A C type name in the subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CType {
    /// `int` (16-bit signed on our targets).
    Int,
    /// A `typedef enum` name.
    Named(String),
    /// `void` (function returns only).
    Void,
}

/// A C expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Integer literal.
    Int(i64),
    /// Identifier (global variable or enum variant).
    Ident(String),
    /// Function call — in the subset these are always communication
    /// service calls or `<SVC>_RESULT()` accessors.
    Call(String, Vec<CExpr>),
    /// Unary operation: `-`, `!`, `~`.
    Unary(&'static str, Box<CExpr>),
    /// Binary operation.
    Binary(&'static str, Box<CExpr>, Box<CExpr>),
}

/// A C statement.
#[derive(Debug, Clone, PartialEq)]
pub enum CStmt {
    /// `lhs = rhs;`
    Assign(String, CExpr),
    /// Expression statement (a bare service call).
    Expr(CExpr),
    /// `if (cond) { .. } else { .. }`
    If(CExpr, Vec<CStmt>, Vec<CStmt>),
    /// `switch (expr) { case X: .. }`
    Switch(CExpr, Vec<SwitchArm>),
    /// `break;`
    Break,
    /// `return e;` (expression optional).
    Return(Option<CExpr>),
    /// Nested block.
    Block(Vec<CStmt>),
}

/// One arm of a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchArm {
    /// Case label (enum variant name), or `None` for `default`.
    pub label: Option<String>,
    /// Arm body (up to and including its `break`).
    pub body: Vec<CStmt>,
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum CDecl {
    /// `typedef enum { A, B } NAME;`
    EnumDef {
        /// Typedef name.
        name: String,
        /// Variants in order.
        variants: Vec<String>,
    },
    /// Global variable with optional initializer.
    Global {
        /// Declared type.
        ty: CType,
        /// Variable name.
        name: String,
        /// Initializer expression.
        init: Option<CExpr>,
    },
    /// Function definition.
    Function {
        /// Return type.
        ret: CType,
        /// Function name.
        name: String,
        /// Parameters (name, type).
        params: Vec<(String, CType)>,
        /// Body statements.
        body: Vec<CStmt>,
    },
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CUnit {
    /// Declarations in order.
    pub decls: Vec<CDecl>,
}

impl CUnit {
    /// Finds a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&CDecl> {
        self.decls
            .iter()
            .find(|d| matches!(d, CDecl::Function { name: n, .. } if n == name))
    }
}
