//! The token cursor both recursive-descent parsers are built on, with
//! their error type and nesting guard. Each grammar adds its
//! productions in an `impl Parser<..>` block of its own.

use crate::lexer::{LexError, Spanned, Tok};
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
            message: e.kind.to_string(),
        }
    }
}

/// Deepest nesting of statements and expression operands (parentheses,
/// unary and binary operators, call arguments) the parsers accept.
/// Parsing and every later pass over the tree recurse once per level, so
/// a deeper source is refused with a [`ParseError`] instead of
/// overflowing the stack.
pub(crate) const MAX_NESTING: usize = 128;

/// A cursor over a token list. `X` is the grammar's own parse state: the
/// C typedef names, or the VHDL count of unlabelled processes.
pub(crate) struct Parser<X> {
    toks: Vec<Spanned>,
    pos: usize,
    /// Statements and expression operands currently open.
    pub(crate) depth: usize,
    /// The grammar's own parse state.
    pub(crate) state: X,
}

impl<X> Parser<X> {
    /// A cursor at the first of `toks`, which ends with [`Tok::Eof`].
    pub(crate) fn new(toks: Vec<Spanned>, state: X) -> Self {
        Parser {
            toks,
            pos: 0,
            depth: 0,
            state,
        }
    }

    pub(crate) fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    pub(crate) fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    /// Takes the next token; at the end it keeps returning [`Tok::Eof`].
    pub(crate) fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// An error at the next token's line.
    pub(crate) fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.toks[self.pos].line,
            message: msg.into(),
        }
    }

    /// The error for `tok`, just taken, where a primary expression
    /// belongs.
    pub(crate) fn unexpected(&self, tok: Tok) -> ParseError {
        ParseError {
            line: self.toks[self.pos.saturating_sub(1)].line,
            message: format!("unexpected token {tok}"),
        }
    }

    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        self.is_kw(kw) && {
            self.bump();
            true
        }
    }

    pub(crate) fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
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

    pub(crate) fn eat_punct(&mut self, p: &str) -> bool {
        matches!(self.peek(), Tok::Punct(q) if *q == p) && {
            self.bump();
            true
        }
    }

    pub(crate) fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}, found {}", self.peek())))
        }
    }

    pub(crate) fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_NESTING`].
    pub(crate) fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.descend()?;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Opens one more nesting level, refusing to pass [`MAX_NESTING`].
    pub(crate) fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }
}

/// Parser tests of both languages.
#[cfg(test)]
mod tests {
    use crate::c::ast::{CDecl, CExpr, CStmt, CType};
    use crate::vhdl::ast::{VExpr, VStmt, VType};
    use crate::{c, vhdl};

    #[test]
    fn typedef_enum_and_global() {
        let unit = c::parse(
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
        let unit = c::parse("typedef enum { INIT, . . ., IDLE } STATETABLE;\n").unwrap();
        match &unit.decls[0] {
            CDecl::EnumDef { variants, .. } => assert_eq!(variants, &["INIT", "IDLE"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_with_switch() {
        let unit = c::parse(
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
        let unit = c::parse("int F() { if (SetupControl()) { x = 1; } return 0; }\n").unwrap();
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
        let unit = c::parse("int F() { x = 1 + 2 * 3 == 7 && 1 < 2; return 0; }\n").unwrap();
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
        let unit = c::parse(
            "typedef enum { INIT } ST;\nint PUT(REQUEST) INTEGER REQUEST;\n{ REQUEST = 1; return 0; }\n",
        );
        // Parsed as a function whose body follows the stray declaration.
        assert!(unit.is_ok(), "{unit:?}");
    }

    #[test]
    fn errors_have_lines() {
        let e = c::parse("int F() { x = ; }\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn char_literals_as_bits() {
        let unit = c::parse("int F() { if (B == '1') { x = 0; } return 0; }\n").unwrap();
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
        let d = vhdl::parse(SPEED_CONTROL).unwrap();
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
        let d = vhdl::parse(SPEED_CONTROL).unwrap();
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
        let d = vhdl::parse(SPEED_CONTROL).unwrap();
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
        let d = vhdl::parse(src).unwrap();
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
        assert!(vhdl::parse(src).is_ok());
    }

    #[test]
    fn multiple_port_names_share_type() {
        let src = "entity E is port ( A, B : in integer; C : out std_logic ); end entity;\n";
        let d = vhdl::parse(src).unwrap();
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
        let d = vhdl::parse(src).unwrap();
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
        let e = vhdl::parse(src).unwrap_err();
        assert!(e.message.contains("sensitivity list"), "{e}");
    }

    #[test]
    fn error_reports_line() {
        let e =
            vhdl::parse("entity E is port ( X : sideways integer ); end entity;\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("direction"));
    }

    #[test]
    fn lex_errors_name_their_line_once() {
        let opts = crate::ElabOptions::default();
        let big = "99999999999999999999";
        let out_of_range = format!("line 2: integer literal {big} is out of range");
        for (c_src, vhdl_src, want) in [
            (
                "int x = @;".to_string(),
                "entity E is @".to_string(),
                "line 1: unexpected character '@'".to_string(),
            ),
            (
                format!("int w;\nint x = {big};"),
                format!("entity E is\nport ( X : in integer := {big} ); end entity;"),
                out_of_range,
            ),
        ] {
            assert_eq!(c::parse(&c_src).unwrap_err().to_string(), want);
            let e = c::compile_module(&c_src, "F", cosma_core::ModuleKind::Software, &opts);
            assert_eq!(e.unwrap_err().to_string(), want);
            assert_eq!(vhdl::parse(&vhdl_src).unwrap_err().to_string(), want);
            let e = vhdl::compile_entity(&vhdl_src, "E", &opts);
            assert_eq!(e.unwrap_err().to_string(), want);
        }
        let e = c::parse("int w;\nint x = 0x1G;").unwrap_err();
        assert_eq!(e.to_string(), "line 2: malformed integer literal 0x1G");
    }
}
