//! Tokenizer for the VHDL subset. VHDL is case-insensitive; identifiers
//! are normalized to upper case.

use crate::lexer::{punct, LexError, Spanned, Tok};

const PUNCTS: &[&str] = &[
    "<=", ">=", ":=", "/=", "=>", "=", "<", ">", "(", ")", ";", ":", ",", "+", "-", "*", "/", "'",
    ".",
];

/// Tokenizes VHDL-subset source. `--` comments are skipped.
///
/// # Errors
///
/// Returns [`LexError`] on characters outside the subset and on integer
/// literals that do not fit `i64`.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = vec![];
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '-' && i + 1 < chars.len() && chars[i + 1] == '-' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect::<String>().to_uppercase();
            out.push(Spanned {
                tok: Tok::Ident(word),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let v = text
                .parse()
                .map_err(|e| LexError::literal(line, text, &e))?;
            out.push(Spanned {
                tok: Tok::Int(v),
                line,
            });
            continue;
        }
        if c == '\'' && i + 2 < chars.len() && chars[i + 2] == '\'' {
            out.push(Spanned {
                tok: Tok::Char(chars[i + 1].to_ascii_uppercase()),
                line,
            });
            i += 3;
            continue;
        }
        let Some(p) = punct(PUNCTS, &chars[i..]) else {
            return Err(LexError::unexpected(line, c));
        };
        out.push(Spanned {
            tok: Tok::Punct(p),
            line,
        });
        i += p.len();
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}
