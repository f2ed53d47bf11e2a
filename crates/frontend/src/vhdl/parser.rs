//! Recursive-descent parser for the VHDL subset.

use crate::lexer::Tok;
use crate::parser::{ParseError, Parser};
use crate::vhdl::ast::{VDesign, VEntity, VExpr, VPort, VProcess, VStmt, VType};
use crate::vhdl::lexer::lex;

/// The VHDL grammar's productions; its parse state counts the
/// unlabelled processes, which are named `PROC1`, `PROC2`, ...
impl Parser<u32> {
    fn parse_type(&mut self) -> Result<VType, ParseError> {
        let name = self.expect_ident()?;
        Ok(match name.as_str() {
            "STD_LOGIC" | "BIT" => VType::StdLogic,
            "INTEGER" | "NATURAL" | "POSITIVE" => VType::Integer,
            "BOOLEAN" => VType::Boolean,
            _ => VType::Named(name),
        })
    }

    fn parse_design(&mut self) -> Result<VDesign, ParseError> {
        let mut design = VDesign::default();
        while !matches!(self.peek(), Tok::Eof) {
            // Skip library/use clauses.
            if self.eat_kw("LIBRARY") || self.eat_kw("USE") {
                while !self.eat_punct(";") {
                    if matches!(self.peek(), Tok::Eof) {
                        return Err(self.err("unterminated library/use clause"));
                    }
                    self.bump();
                }
                continue;
            }
            if self.is_kw("ENTITY") {
                let (name, ports) = self.parse_entity_decl()?;
                design.entities.push(VEntity {
                    name,
                    ports,
                    enums: vec![],
                    signals: vec![],
                    processes: vec![],
                });
                continue;
            }
            if self.is_kw("ARCHITECTURE") {
                self.parse_architecture(&mut design)?;
                continue;
            }
            return Err(self.err(format!(
                "expected entity or architecture, found {}",
                self.peek()
            )));
        }
        Ok(design)
    }

    fn parse_entity_decl(&mut self) -> Result<(String, Vec<VPort>), ParseError> {
        self.expect_kw("ENTITY")?;
        let name = self.expect_ident()?;
        self.expect_kw("IS")?;
        let mut ports = vec![];
        if self.eat_kw("PORT") {
            self.expect_punct("(")?;
            loop {
                // name {, name} : dir type
                let mut names = vec![self.expect_ident()?];
                while self.eat_punct(",") {
                    names.push(self.expect_ident()?);
                }
                self.expect_punct(":")?;
                let dir = self.expect_ident()?;
                if !matches!(dir.as_str(), "IN" | "OUT" | "INOUT") {
                    return Err(self.err(format!("invalid port direction {dir}")));
                }
                let ty = self.parse_type()?;
                for n in names {
                    ports.push(VPort {
                        name: n,
                        dir: dir.clone(),
                        ty: ty.clone(),
                    });
                }
                if self.eat_punct(";") {
                    continue;
                }
                self.expect_punct(")")?;
                self.expect_punct(";")?;
                break;
            }
        }
        self.expect_kw("END")?;
        let _ = self.eat_kw("ENTITY");
        if matches!(self.peek(), Tok::Ident(_)) {
            self.bump();
        }
        self.expect_punct(";")?;
        Ok((name, ports))
    }

    fn parse_architecture(&mut self, design: &mut VDesign) -> Result<(), ParseError> {
        self.expect_kw("ARCHITECTURE")?;
        let _arch_name = self.expect_ident()?;
        self.expect_kw("OF")?;
        let entity_name = self.expect_ident()?;
        self.expect_kw("IS")?;
        let Some(idx) = design.entities.iter().position(|e| e.name == entity_name) else {
            return Err(self.err(format!("architecture for unknown entity {entity_name}")));
        };
        // Declarative part.
        let mut enums = vec![];
        let mut signals = vec![];
        while !self.eat_kw("BEGIN") {
            if self.eat_kw("TYPE") {
                let tname = self.expect_ident()?;
                self.expect_kw("IS")?;
                self.expect_punct("(")?;
                let mut variants = vec![self.expect_ident()?];
                while self.eat_punct(",") {
                    variants.push(self.expect_ident()?);
                }
                self.expect_punct(")")?;
                self.expect_punct(";")?;
                enums.push((tname, variants));
                continue;
            }
            if self.eat_kw("SIGNAL") {
                let mut names = vec![self.expect_ident()?];
                while self.eat_punct(",") {
                    names.push(self.expect_ident()?);
                }
                self.expect_punct(":")?;
                let ty = self.parse_type()?;
                let init = if self.eat_punct(":=") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect_punct(";")?;
                for n in names {
                    signals.push((n, ty.clone(), init.clone()));
                }
                continue;
            }
            return Err(self.err(format!(
                "unsupported architecture declaration starting with {}",
                self.peek()
            )));
        }
        // Statement part: labelled processes.
        let mut processes = vec![];
        while !self.eat_kw("END") {
            processes.push(self.parse_process()?);
        }
        let _ = self.eat_kw("ARCHITECTURE");
        if matches!(self.peek(), Tok::Ident(_)) {
            self.bump();
        }
        self.expect_punct(";")?;
        let e = &mut design.entities[idx];
        e.enums = enums;
        e.signals = signals;
        e.processes = processes;
        Ok(())
    }

    fn parse_process(&mut self) -> Result<VProcess, ParseError> {
        // [label :] process [(sensitivity)] [is] {decls} begin {stmts} end process [label];
        let name = if matches!(self.peek(), Tok::Ident(s) if s != "PROCESS")
            && matches!(self.peek2(), Tok::Punct(":"))
        {
            let n = self.expect_ident()?;
            self.expect_punct(":")?;
            n
        } else {
            self.state += 1;
            format!("PROC{}", self.state)
        };
        self.expect_kw("PROCESS")?;
        if self.eat_punct("(") {
            // Sensitivity list ignored (activation is per cycle).
            while !self.eat_punct(")") {
                if matches!(self.peek(), Tok::Eof) {
                    return Err(self.err("unterminated sensitivity list"));
                }
                self.bump();
            }
        }
        let _ = self.eat_kw("IS");
        let mut vars = vec![];
        while !self.eat_kw("BEGIN") {
            self.expect_kw("VARIABLE")?;
            let mut names = vec![self.expect_ident()?];
            while self.eat_punct(",") {
                names.push(self.expect_ident()?);
            }
            self.expect_punct(":")?;
            let ty = self.parse_type()?;
            let init = if self.eat_punct(":=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            for n in names {
                vars.push((n, ty.clone(), init.clone()));
            }
        }
        let body = self.parse_stmts(&["END"])?;
        self.expect_kw("END")?;
        self.expect_kw("PROCESS")?;
        if matches!(self.peek(), Tok::Ident(_)) {
            self.bump();
        }
        self.expect_punct(";")?;
        Ok(VProcess { name, vars, body })
    }

    /// Parses statements until one of the terminator keywords is next
    /// (without consuming it).
    fn parse_stmts(&mut self, terminators: &[&str]) -> Result<Vec<VStmt>, ParseError> {
        let mut out = vec![];
        loop {
            if terminators.iter().any(|t| self.is_kw(t)) {
                return Ok(out);
            }
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.err("unexpected end of file in statement list"));
            }
            out.push(self.parse_stmt()?);
        }
    }

    fn parse_stmt(&mut self) -> Result<VStmt, ParseError> {
        self.nested(Self::parse_stmt_body)
    }

    fn parse_stmt_body(&mut self) -> Result<VStmt, ParseError> {
        if self.eat_kw("NULL") {
            self.expect_punct(";")?;
            return Ok(VStmt::Null);
        }
        if self.eat_kw("WAIT") {
            // wait; | wait for X; | wait on a, b; — all treated as the
            // activation boundary.
            while !self.eat_punct(";") {
                if matches!(self.peek(), Tok::Eof) {
                    return Err(self.err("unterminated wait"));
                }
                self.bump();
            }
            return Ok(VStmt::Wait);
        }
        if self.eat_kw("IF") {
            let mut arms = vec![];
            let cond = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let body = self.parse_stmts(&["ELSIF", "ELSE", "END"])?;
            arms.push((cond, body));
            let mut else_body = vec![];
            loop {
                if self.eat_kw("ELSIF") {
                    let c = self.parse_expr()?;
                    self.expect_kw("THEN")?;
                    let b = self.parse_stmts(&["ELSIF", "ELSE", "END"])?;
                    arms.push((c, b));
                    continue;
                }
                if self.eat_kw("ELSE") {
                    else_body = self.parse_stmts(&["END"])?;
                }
                break;
            }
            self.expect_kw("END")?;
            self.expect_kw("IF")?;
            self.expect_punct(";")?;
            return Ok(VStmt::If { arms, else_body });
        }
        if self.eat_kw("CASE") {
            let scrutinee = self.expect_ident()?;
            self.expect_kw("IS")?;
            let mut arms = vec![];
            while self.eat_kw("WHEN") {
                let label = if self.eat_kw("OTHERS") {
                    None
                } else {
                    Some(self.expect_ident()?)
                };
                self.expect_punct("=>")?;
                let body = self.parse_stmts(&["WHEN", "END"])?;
                arms.push((label, body));
            }
            self.expect_kw("END")?;
            self.expect_kw("CASE")?;
            self.expect_punct(";")?;
            return Ok(VStmt::Case { scrutinee, arms });
        }
        // Assignment or call.
        let name = self.expect_ident()?;
        if self.eat_punct(":=") {
            let e = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(VStmt::VarAssign(name, e));
        }
        if self.eat_punct("<=") {
            let e = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(VStmt::SigAssign(name, e));
        }
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
            self.expect_punct(";")?;
            return Ok(VStmt::Call(name, args));
        }
        // Bare procedure call: `ReadSampledData;` (also tolerate the
        // paper's style without the semicolon before a keyword).
        let _ = self.eat_punct(";");
        Ok(VStmt::Call(name, vec![]))
    }

    fn parse_expr(&mut self) -> Result<VExpr, ParseError> {
        self.parse_binary(0)
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<VExpr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, prec): (&'static str, u8) = match self.peek() {
                Tok::Ident(s) if s == "OR" => ("or", 1),
                Tok::Ident(s) if s == "XOR" => ("xor", 1),
                Tok::Ident(s) if s == "AND" => ("and", 2),
                Tok::Punct("=") => ("=", 3),
                Tok::Punct("/=") => ("/=", 3),
                Tok::Punct("<") => ("<", 3),
                Tok::Punct("<=") => ("<=", 3),
                Tok::Punct(">") => (">", 3),
                Tok::Punct(">=") => (">=", 3),
                Tok::Punct("+") => ("+", 4),
                Tok::Punct("-") => ("-", 4),
                Tok::Punct("*") => ("*", 5),
                Tok::Punct("/") => ("/", 5),
                Tok::Ident(s) if s == "MOD" => ("mod", 5),
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
            lhs = VExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<VExpr, ParseError> {
        self.nested(Self::parse_unary_body)
    }

    fn parse_unary_body(&mut self) -> Result<VExpr, ParseError> {
        if self.eat_kw("NOT") {
            return Ok(VExpr::Unary("not", Box::new(self.parse_unary()?)));
        }
        if self.eat_punct("-") {
            return Ok(VExpr::Unary("-", Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<VExpr, ParseError> {
        match self.bump() {
            Tok::Int(i) => Ok(VExpr::Int(i)),
            Tok::Char(c) => Ok(VExpr::Char(c)),
            Tok::Ident(s) if s == "TRUE" => Ok(VExpr::Bool(true)),
            Tok::Ident(s) if s == "FALSE" => Ok(VExpr::Bool(false)),
            Tok::Ident(s) => Ok(VExpr::Ident(s)),
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(self.unexpected(other)),
        }
    }
}

/// Parses a VHDL-subset design file.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic errors, and on
/// statements and expression operands (parentheses, unary and binary
/// operators) nested more than 128 levels deep.
pub fn parse(src: &str) -> Result<VDesign, ParseError> {
    Parser::new(lex(src)?, 0).parse_design()
}
