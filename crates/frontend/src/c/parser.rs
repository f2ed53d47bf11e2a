//! Recursive-descent parser for the C subset.

use crate::c::ast::{CDecl, CExpr, CStmt, CType, CUnit, SwitchArm};
use crate::c::lexer::lex;
use crate::lexer::Tok;
use crate::parser::{ParseError, Parser};
use std::collections::HashSet;

/// The C grammar's productions; its parse state is the set of typedef
/// names declared so far.
impl Parser<HashSet<String>> {
    fn peek_is_type(&self) -> bool {
        match self.peek() {
            Tok::Ident(s) => {
                matches!(s.as_str(), "int" | "void" | "unsigned" | "static" | "const")
                    || self.state.contains(s)
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
            Tok::Ident(name) if self.state.contains(&name) => {
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
                self.state.insert(name.clone());
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
            other => Err(self.unexpected(other)),
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
    Parser::new(lex(src)?, HashSet::new()).parse_unit()
}
