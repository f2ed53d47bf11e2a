//! Tokenizer for the C subset.

use crate::lexer::{punct, LexError, Spanned, Tok};

const PUNCTS: &[&str] = &[
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->", "+", "-", "*", "/", "%", "<", ">", "=",
    "!", "~", "&", "|", "^", "(", ")", "{", "}", "[", "]", ";", ",", ":", ".", "?",
];

/// Tokenizes C-subset source.
///
/// Skips `//` and `/* */` comments and preprocessor lines (`#...`).
///
/// # Errors
///
/// Returns [`LexError`] on characters outside the subset and on integer
/// literals that are malformed or do not fit `i64`.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut out = vec![];
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Preprocessor lines are ignored wholesale.
        if c == '#' {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == '/' {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == '*' {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                if bytes[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            i = (i + 2).min(bytes.len());
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            out.push(Spanned {
                tok: Tok::Ident(bytes[start..i].iter().collect()),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut radix = 10;
            if c == '0' && i + 1 < bytes.len() && (bytes[i + 1] == 'x' || bytes[i + 1] == 'X') {
                radix = 16;
                i += 2;
            }
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            let digits = if radix == 16 { &text[2..] } else { &text[..] };
            let v = i64::from_str_radix(digits, radix)
                .map_err(|e| LexError::literal(line, text, &e))?;
            out.push(Spanned {
                tok: Tok::Int(v),
                line,
            });
            continue;
        }
        // Character literal like '1' used in bit comparisons maps to an
        // integer 0/1 token for convenience.
        if c == '\'' && i + 2 < bytes.len() && bytes[i + 2] == '\'' {
            let v = match bytes[i + 1] {
                '0' => 0,
                '1' => 1,
                other => return Err(LexError::unexpected(line, other)),
            };
            out.push(Spanned {
                tok: Tok::Int(v),
                line,
            });
            i += 3;
            continue;
        }
        let Some(p) = punct(PUNCTS, &bytes[i..]) else {
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
