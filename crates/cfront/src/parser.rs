//! Recursive-descent parser for the C subset.

use crate::ast::{CDecl, CExpr, CStmt, CType, CUnit, SwitchArm};
use crate::lexer::{lex, LexError, Spanned, Tok};
use std::collections::HashSet;
use std::fmt;

/// Parse error with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.to_string(),
        }
    }
}

/// Deepest nesting of statements and expression operands (parentheses,
/// unary and binary operators, call arguments) the parser accepts.
/// Parsing and every later pass over the tree recurse once per level, so
/// a deeper source is refused with a [`ParseError`] instead of
/// overflowing the stack.
pub(crate) const MAX_NESTING: usize = 128;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    typedefs: HashSet<String>,
    /// Statements and expression operands currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Punct(q) if *q == p => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected {p:?}, found {other}"))),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        matches!(self.peek(), Tok::Punct(q) if *q == p) && {
            self.bump();
            true
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.descend()?;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Opens one more nesting level, refusing to pass [`MAX_NESTING`].
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        self.is_kw(kw) && {
            self.bump();
            true
        }
    }

    fn peek_is_type(&self) -> bool {
        match self.peek() {
            Tok::Ident(s) => {
                matches!(s.as_str(), "int" | "void" | "unsigned" | "static" | "const")
                    || self.typedefs.contains(s)
            }
            _ => false,
        }
    }

    fn parse_type(&mut self) -> Result<CType, ParseError> {
        // Accept `static` and `unsigned` as noise words.
        while self.eat_kw("static") || self.eat_kw("unsigned") || self.eat_kw("const") {}
        if self.eat_kw("int") {
            return Ok(CType::Int);
        }
        if self.eat_kw("void") {
            return Ok(CType::Void);
        }
        match self.peek().clone() {
            Tok::Ident(name) if self.typedefs.contains(&name) => {
                self.bump();
                Ok(CType::Named(name))
            }
            other => Err(self.err(format!("expected type name, found {other}"))),
        }
    }

    fn parse_unit(&mut self) -> Result<CUnit, ParseError> {
        let mut unit = CUnit::default();
        while !matches!(self.peek(), Tok::Eof) {
            if self.eat_kw("typedef") {
                if !self.eat_kw("enum") {
                    return Err(self.err("only `typedef enum` is supported"));
                }
                self.expect_punct("{")?;
                let mut variants = vec![];
                loop {
                    if self.eat_punct("}") {
                        break;
                    }
                    // Tolerate the paper's ellipsis style: `INIT, . . ., IDLE`.
                    if self.eat_punct(".") || self.eat_punct(",") {
                        continue;
                    }
                    variants.push(self.expect_ident()?);
                }
                let name = self.expect_ident()?;
                self.expect_punct(";")?;
                self.typedefs.insert(name.clone());
                unit.decls.push(CDecl::EnumDef { name, variants });
                continue;
            }
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            if self.eat_punct("(") {
                // Function definition.
                let mut params = vec![];
                if !self.eat_punct(")") {
                    loop {
                        if self.eat_kw("void") {
                            self.expect_punct(")")?;
                            break;
                        }
                        // K&R-style lists give bare names; typed lists give
                        // `int x` / `ST y`.
                        let pty = if self.peek_is_type() {
                            self.parse_type()?
                        } else {
                            CType::Int
                        };
                        let pname = self.expect_ident()?;
                        params.push((pname, pty));
                        if !self.eat_punct(",") {
                            self.expect_punct(")")?;
                            break;
                        }
                    }
                }
                // Tolerate K&R-style parameter redeclarations before `{`:
                //   int PUT(REQUEST) INTEGER REQUEST; { ... }
                while !matches!(self.peek(), Tok::Punct("{")) {
                    if matches!(self.peek(), Tok::Eof) {
                        return Err(self.err("expected function body"));
                    }
                    self.bump();
                }
                let body = self.parse_block()?;
                unit.decls.push(CDecl::Function {
                    ret: ty,
                    name,
                    params,
                    body,
                });
            } else {
                let init = if self.eat_punct("=") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect_punct(";")?;
                unit.decls.push(CDecl::Global { ty, name, init });
            }
        }
        Ok(unit)
    }

    fn parse_block(&mut self) -> Result<Vec<CStmt>, ParseError> {
        self.expect_punct("{")?;
        let mut body = vec![];
        while !self.eat_punct("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.err("unexpected end of file in block"));
            }
            body.push(self.parse_stmt()?);
        }
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<CStmt, ParseError> {
        self.nested(Self::parse_stmt_body)
    }

    fn parse_stmt_body(&mut self) -> Result<CStmt, ParseError> {
        if matches!(self.peek(), Tok::Punct("{")) {
            return Ok(CStmt::Block(self.parse_block()?));
        }
        if self.eat_kw("break") {
            self.expect_punct(";")?;
            return Ok(CStmt::Break);
        }
        if self.eat_kw("return") {
            if self.eat_punct(";") {
                return Ok(CStmt::Return(None));
            }
            let e = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(CStmt::Return(Some(e)));
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let then_body = self.parse_stmt_as_block()?;
            let else_body = if self.eat_kw("else") {
                self.parse_stmt_as_block()?
            } else {
                vec![]
            };
            return Ok(CStmt::If(cond, then_body, else_body));
        }
        if self.eat_kw("switch") {
            self.expect_punct("(")?;
            let scrutinee = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_punct("{")?;
            let mut arms = vec![];
            while !self.eat_punct("}") {
                let label = if self.eat_kw("case") {
                    let l = self.expect_ident()?;
                    self.expect_punct(":")?;
                    Some(l)
                } else if self.eat_kw("default") {
                    self.expect_punct(":")?;
                    None
                } else {
                    return Err(self.err("expected `case` or `default` in switch"));
                };
                let mut body = vec![];
                loop {
                    if self.is_kw("case") || self.is_kw("default") {
                        break;
                    }
                    if matches!(self.peek(), Tok::Punct("}")) {
                        break;
                    }
                    let stmt = self.parse_stmt()?;
                    let was_break = stmt == CStmt::Break;
                    body.push(stmt);
                    if was_break {
                        break;
                    }
                }
                arms.push(SwitchArm { label, body });
            }
            return Ok(CStmt::Switch(scrutinee, arms));
        }
        // Assignment or expression statement.
        let e = self.parse_expr()?;
        if self.eat_punct("=") || self.eat_punct(":") && self.eat_punct("=") {
            // Also tolerate `:=` typos from the paper's listings.
            let name = match e {
                CExpr::Ident(n) => n,
                _ => return Err(self.err("assignment target must be an identifier")),
            };
            let rhs = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(CStmt::Assign(name, rhs));
        }
        self.expect_punct(";")?;
        Ok(CStmt::Expr(e))
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<CStmt>, ParseError> {
        if matches!(self.peek(), Tok::Punct("{")) {
            self.parse_block()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_expr(&mut self) -> Result<CExpr, ParseError> {
        self.parse_binary(0)
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<CExpr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, prec): (&'static str, u8) = match self.peek() {
                Tok::Punct("||") => ("||", 1),
                Tok::Punct("&&") => ("&&", 2),
                Tok::Punct("|") => ("|", 3),
                Tok::Punct("^") => ("^", 4),
                Tok::Punct("&") => ("&", 5),
                Tok::Punct("==") => ("==", 6),
                Tok::Punct("!=") => ("!=", 6),
                Tok::Punct("<") => ("<", 7),
                Tok::Punct("<=") => ("<=", 7),
                Tok::Punct(">") => (">", 7),
                Tok::Punct(">=") => (">=", 7),
                Tok::Punct("<<") => ("<<", 8),
                Tok::Punct(">>") => (">>", 8),
                Tok::Punct("+") => ("+", 9),
                Tok::Punct("-") => ("-", 9),
                Tok::Punct("*") => ("*", 10),
                Tok::Punct("/") => ("/", 10),
                Tok::Punct("%") => ("%", 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            // Each operator folded into `lhs` nests the tree a level
            // deeper: `a + b + c` is `(a + b) + c`.
            self.descend()?;
            let rhs = self.parse_binary(prec + 1)?;
            lhs = CExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<CExpr, ParseError> {
        self.nested(Self::parse_unary_body)
    }

    fn parse_unary_body(&mut self) -> Result<CExpr, ParseError> {
        if self.eat_punct("-") {
            return Ok(CExpr::Unary("-", Box::new(self.parse_unary()?)));
        }
        if self.eat_punct("!") {
            return Ok(CExpr::Unary("!", Box::new(self.parse_unary()?)));
        }
        if self.eat_punct("~") {
            return Ok(CExpr::Unary("~", Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<CExpr, ParseError> {
        match self.bump() {
            Tok::Int(i) => Ok(CExpr::Int(i)),
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = vec![];
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(",") {
                                self.expect_punct(")")?;
                                break;
                            }
                        }
                    }
                    Ok(CExpr::Call(name, args))
                } else {
                    Ok(CExpr::Ident(name))
                }
            }
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(ParseError {
                line: self.toks[self.pos.saturating_sub(1)].line,
                message: format!("unexpected token {other}"),
            }),
        }
    }
}

/// Parses a C-subset translation unit.
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line on lexical or syntactic
/// errors, and on statements and expression operands (parentheses, unary
/// and binary operators, call arguments) nested more than 128 levels
/// deep.
pub fn parse(src: &str) -> Result<CUnit, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        typedefs: HashSet::new(),
        depth: 0,
    };
    p.parse_unit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typedef_enum_and_global() {
        let unit = parse(
            "typedef enum { INIT, WAIT, IDLE } STATETABLE;\nSTATETABLE NEXTSTATE = INIT;\nint COUNT = 0;\n",
        )
        .unwrap();
        assert_eq!(unit.decls.len(), 3);
        match &unit.decls[0] {
            CDecl::EnumDef { name, variants } => {
                assert_eq!(name, "STATETABLE");
                assert_eq!(variants.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &unit.decls[1] {
            CDecl::Global {
                ty: CType::Named(t),
                name,
                init,
            } => {
                assert_eq!(t, "STATETABLE");
                assert_eq!(name, "NEXTSTATE");
                assert_eq!(init, &Some(CExpr::Ident("INIT".into())));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_ellipsis_in_enum_tolerated() {
        let unit = parse("typedef enum { INIT, . . ., IDLE } STATETABLE;\n").unwrap();
        match &unit.decls[0] {
            CDecl::EnumDef { variants, .. } => assert_eq!(variants, &["INIT", "IDLE"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_with_switch() {
        let unit = parse(
            "typedef enum { Start, Next } ST;\nST NextState = Start;\nint DISTRIBUTION() {\n  switch (NextState) {\n    case Start: { NextState = Next; } break;\n    default: { NextState = Start; }\n  }\n  return 1;\n}\n",
        )
        .unwrap();
        let f = unit.function("DISTRIBUTION").expect("function exists");
        match f {
            CDecl::Function { body, .. } => {
                assert!(matches!(body[0], CStmt::Switch(_, _)));
                assert!(matches!(body[1], CStmt::Return(Some(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn service_call_in_condition() {
        let unit = parse("int F() { if (SetupControl()) { x = 1; } return 0; }\n").unwrap();
        match unit.function("F").unwrap() {
            CDecl::Function { body, .. } => match &body[0] {
                CStmt::If(CExpr::Call(name, args), then_b, else_b) => {
                    assert_eq!(name, "SetupControl");
                    assert!(args.is_empty());
                    assert_eq!(then_b.len(), 1);
                    assert!(else_b.is_empty());
                }
                other => panic!("unexpected {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn precedence() {
        let unit = parse("int F() { x = 1 + 2 * 3 == 7 && 1 < 2; return 0; }\n").unwrap();
        match unit.function("F").unwrap() {
            CDecl::Function { body, .. } => match &body[0] {
                CStmt::Assign(_, CExpr::Binary("&&", lhs, _)) => {
                    assert!(matches!(**lhs, CExpr::Binary("==", _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn kandr_parameter_style_tolerated() {
        // The paper's Fig. 3 uses K&R declarations.
        let unit = parse(
            "typedef enum { INIT } ST;\nint PUT(REQUEST) INTEGER REQUEST;\n{ REQUEST = 1; return 0; }\n",
        );
        // Parsed as a function whose body follows the stray declaration.
        assert!(unit.is_ok(), "{unit:?}");
    }

    #[test]
    fn errors_have_lines() {
        let e = parse("int F() { x = ; }\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn char_literals_as_bits() {
        let unit = parse("int F() { if (B == '1') { x = 0; } return 0; }\n").unwrap();
        match unit.function("F").unwrap() {
            CDecl::Function { body, .. } => match &body[0] {
                CStmt::If(CExpr::Binary("==", _, rhs), _, _) => {
                    assert_eq!(**rhs, CExpr::Int(1));
                }
                other => panic!("unexpected {other:?}"),
            },
            _ => unreachable!(),
        }
    }
}
