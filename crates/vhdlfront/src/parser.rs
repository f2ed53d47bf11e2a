//! Recursive-descent parser for the VHDL subset.

use crate::ast::{VDesign, VEntity, VExpr, VPort, VProcess, VStmt, VType};
use crate::lexer::{lex, LexError, Spanned, Tok};
use std::fmt;

/// Parse error with 1-based line.
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
/// unary and binary operators) the parser accepts. Parsing and every
/// later pass over the tree recurse once per level, so a deeper source
/// is refused with a [`ParseError`] instead of overflowing the stack.
pub(crate) const MAX_NESTING: usize = 128;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    anon_procs: u32,
    /// Statements and expression operands currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
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

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                kw.to_lowercase(),
                self.peek()
            )))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        matches!(self.peek(), Tok::Punct(q) if *q == p) && {
            self.bump();
            true
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

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
            self.anon_procs += 1;
            format!("PROC{}", self.anon_procs)
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
            other => Err(ParseError {
                line: self.toks[self.pos.saturating_sub(1)].line,
                message: format!("unexpected token {other}"),
            }),
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
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        anon_procs: 0,
        depth: 0,
    };
    p.parse_design()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEED_CONTROL: &str = r#"
entity SPEED_CONTROL is
  port (
    CLK   : in  std_logic;
    PULSE : out std_logic
  );
end entity;

architecture fsm of SPEED_CONTROL is
  type CORE_STATES is (IDLE, COMPUTE);
  signal RESIDUAL : integer := 0;
begin
  CORE : process
    variable NEXT_STATE : CORE_STATES := IDLE;
    variable SPEED : integer := 0;
  begin
    case NEXT_STATE is
      when IDLE =>
        if RESIDUAL > 0 then
          NEXT_STATE := COMPUTE;
        end if;
      when COMPUTE =>
        SPEED := SPEED + 1;
        RESIDUAL <= RESIDUAL - 1;
        NEXT_STATE := IDLE;
      when others =>
        NEXT_STATE := IDLE;
    end case;
    wait for CYCLE;
  end process;

  TIMER : process
  begin
    SendMotorPulses;
    PULSE <= '1';
    wait for CYCLE;
  end process;
end architecture;
"#;

    #[test]
    fn full_entity_parses() {
        let d = parse(SPEED_CONTROL).unwrap();
        let e = d.entity("speed_control").expect("entity found");
        assert_eq!(e.ports.len(), 2);
        assert_eq!(e.ports[0].name, "CLK");
        assert_eq!(e.ports[0].dir, "IN");
        assert_eq!(e.enums.len(), 1);
        assert_eq!(e.signals.len(), 1);
        assert_eq!(e.processes.len(), 2);
        assert_eq!(e.processes[0].name, "CORE");
        assert_eq!(e.processes[1].name, "TIMER");
    }

    #[test]
    fn case_arms_parse() {
        let d = parse(SPEED_CONTROL).unwrap();
        let p = &d.entity("SPEED_CONTROL").unwrap().processes[0];
        match &p.body[0] {
            VStmt::Case { scrutinee, arms } => {
                assert_eq!(scrutinee, "NEXT_STATE");
                assert_eq!(arms.len(), 3);
                assert_eq!(arms[0].0.as_deref(), Some("IDLE"));
                assert_eq!(arms[2].0, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn calls_and_sig_assigns() {
        let d = parse(SPEED_CONTROL).unwrap();
        let p = &d.entity("SPEED_CONTROL").unwrap().processes[1];
        assert_eq!(p.body[0], VStmt::Call("SENDMOTORPULSES".into(), vec![]));
        assert_eq!(
            p.body[1],
            VStmt::SigAssign("PULSE".into(), VExpr::Char('1'))
        );
        assert_eq!(p.body[2], VStmt::Wait);
    }

    #[test]
    fn elsif_chain() {
        let src = r#"
entity E is end entity;
architecture a of E is
begin
  process
    variable X : integer := 0;
  begin
    if X = 0 then X := 1;
    elsif X = 1 then X := 2;
    else X := 0;
    end if;
    wait;
  end process;
end architecture;
"#;
        let d = parse(src).unwrap();
        let p = &d.entity("E").unwrap().processes[0];
        match &p.body[0] {
            VStmt::If { arms, else_body } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn library_use_skipped() {
        let src = "library IEEE;\nuse IEEE.std_logic_1164.all;\nentity E is end entity;\n";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn multiple_port_names_share_type() {
        let src = "entity E is port ( A, B : in integer; C : out std_logic ); end entity;\n";
        let d = parse(src).unwrap();
        let e = d.entity("E").unwrap();
        assert_eq!(e.ports.len(), 3);
        assert_eq!(e.ports[1].name, "B");
        assert_eq!(e.ports[1].ty, VType::Integer);
    }

    #[test]
    fn operator_precedence() {
        let src = r#"
entity E is end entity;
architecture a of E is
begin
  process
    variable X : boolean := false;
    variable A : integer := 0;
  begin
    if A + 1 * 2 = 2 and X then A := 1; end if;
    wait;
  end process;
end architecture;
"#;
        let d = parse(src).unwrap();
        let p = &d.entity("E").unwrap().processes[0];
        match &p.body[0] {
            VStmt::If { arms, .. } => match &arms[0].0 {
                VExpr::Binary("and", lhs, _) => {
                    assert!(matches!(**lhs, VExpr::Binary("=", _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unterminated_sensitivity_list_is_an_error() {
        // Used to spin forever: `bump` does not advance past the end.
        let src = "entity E is end entity; architecture a of E is begin p : process (";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("sensitivity list"), "{e}");
    }

    #[test]
    fn error_reports_line() {
        let e = parse("entity E is port ( X : sideways integer ); end entity;\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("direction"));
    }
}
