//! Tokens of both languages and the punctuation matcher their lexers
//! share. Each language keeps its own `lex` loop, since comments,
//! literals and letter case differ.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (upper-cased in VHDL, which is
    /// case-insensitive).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// VHDL character literal `'0'`, `'1'`, `'X'`, `'Z'`. (The C lexer
    /// turns `'0'` and `'1'` into [`Tok::Int`].)
    Char(char),
    /// Punctuation / operator, e.g. `"=="`, `":="`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Char(c) => write!(f, "'{c}'"),
            Tok::Punct(p) => write!(f, "{p}"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: usize,
}

/// Lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong at that line.
    pub kind: LexErrorKind,
}

/// What a [`LexError`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexErrorKind {
    /// A character outside the language subset.
    UnexpectedChar(char),
    /// An integer literal, as written, whose value does not fit `i64`.
    OutOfRange(String),
    /// An integer literal, as written, with a digit its radix lacks
    /// (e.g. C `0x1G`, `12ab` or a bare `0x`).
    Malformed(String),
}

impl LexError {
    /// The error for character `ch`, outside the subset, on `line`.
    pub(crate) fn unexpected(line: usize, ch: char) -> Self {
        LexError {
            line,
            kind: LexErrorKind::UnexpectedChar(ch),
        }
    }

    /// The error for integer literal `text` on `line` that
    /// `i64::from_str_radix` refused with `e`.
    pub(crate) fn literal(line: usize, text: String, e: &std::num::ParseIntError) -> Self {
        let kind = match e.kind() {
            std::num::IntErrorKind::PosOverflow => LexErrorKind::OutOfRange(text),
            _ => LexErrorKind::Malformed(text),
        };
        LexError { line, kind }
    }
}

impl fmt::Display for LexErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            LexErrorKind::OutOfRange(text) => {
                write!(f, "integer literal {text} is out of range")
            }
            LexErrorKind::Malformed(text) => write!(f, "malformed integer literal {text}"),
        }
    }
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for LexError {}

/// The first entry of `table` that `rest` starts with. Tables list
/// two-character operators before their one-character prefixes.
pub(crate) fn punct(table: &[&'static str], rest: &[char]) -> Option<&'static str> {
    table.iter().copied().find(|p| {
        let mut rest = rest.iter();
        p.chars().all(|c| rest.next() == Some(&c))
    })
}

/// Lexer tests of both languages.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c, vhdl};

    fn c_toks(src: &str) -> Vec<Tok> {
        c::lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    fn vhdl_toks(src: &str) -> Vec<Tok> {
        vhdl::lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        assert_eq!(
            c_toks("x = 0x1F + 2;"),
            vec![
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::Int(31),
                Tok::Punct("+"),
                Tok::Int(2),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_preprocessor_skipped() {
        assert_eq!(
            c_toks("// c1\n#include <x.h>\n/* c2\nc3 */ y"),
            vec![Tok::Ident("y".into()), Tok::Eof]
        );
    }

    #[test]
    fn two_char_operators_win() {
        assert_eq!(
            c_toks("a == b != c <= d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("=="),
                Tok::Ident("b".into()),
                Tok::Punct("!="),
                Tok::Ident("c".into()),
                Tok::Punct("<="),
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn char_literals_become_ints() {
        assert_eq!(c_toks("'1' '0'"), vec![Tok::Int(1), Tok::Int(0), Tok::Eof]);
    }

    #[test]
    fn line_numbers_tracked() {
        let ts = c::lex("a\nb\n\nc").unwrap();
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
        assert_eq!(ts[2].line, 4);
    }

    #[test]
    fn bad_character_reported() {
        let e = c::lex("a @ b").unwrap_err();
        assert_eq!(e.kind, LexErrorKind::UnexpectedChar('@'));
        assert_eq!(e.to_string(), "line 1: unexpected character '@'");
    }

    #[test]
    fn integer_literal_errors_name_the_literal() {
        // Each used to be reported as an unexpected first digit.
        let big = "99999999999999999999";
        for (literal, want) in [
            (big, LexErrorKind::OutOfRange(big.into())),
            (
                "0x8000000000000000",
                LexErrorKind::OutOfRange("0x8000000000000000".into()),
            ),
            ("0x1G", LexErrorKind::Malformed("0x1G".into())),
            ("0x", LexErrorKind::Malformed("0x".into())),
            ("12ab", LexErrorKind::Malformed("12ab".into())),
        ] {
            let e = c::lex(&format!("x = {literal};")).unwrap_err();
            assert_eq!(e.kind, want, "{literal}");
        }
        let e = vhdl::lex(&format!("x := {big};")).unwrap_err();
        assert_eq!(e.kind, LexErrorKind::OutOfRange(big.into()));
        assert_eq!(
            e.to_string(),
            format!("line 1: integer literal {big} is out of range")
        );
        assert_eq!(c_toks("x = 9223372036854775807;")[2], Tok::Int(i64::MAX));
    }

    #[test]
    fn identifiers_uppercased() {
        assert_eq!(
            vhdl_toks("entity Speed_Control is"),
            vec![
                Tok::Ident("ENTITY".into()),
                Tok::Ident("SPEED_CONTROL".into()),
                Tok::Ident("IS".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn signal_assign_vs_le() {
        assert_eq!(
            vhdl_toks("a <= b; c := 1;"),
            vec![
                Tok::Ident("A".into()),
                Tok::Punct("<="),
                Tok::Ident("B".into()),
                Tok::Punct(";"),
                Tok::Ident("C".into()),
                Tok::Punct(":="),
                Tok::Int(1),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn char_literals() {
        assert_eq!(
            vhdl_toks("'1' 'z'"),
            vec![Tok::Char('1'), Tok::Char('Z'), Tok::Eof]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            vhdl_toks("a -- comment\nb"),
            vec![Tok::Ident("A".into()), Tok::Ident("B".into()), Tok::Eof]
        );
    }

    #[test]
    fn ne_operator() {
        assert_eq!(
            vhdl_toks("a /= b"),
            vec![
                Tok::Ident("A".into()),
                Tok::Punct("/="),
                Tok::Ident("B".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn arrow_in_case() {
        assert_eq!(
            vhdl_toks("when INIT =>"),
            vec![
                Tok::Ident("WHEN".into()),
                Tok::Ident("INIT".into()),
                Tok::Punct("=>"),
                Tok::Eof
            ]
        );
    }
}
