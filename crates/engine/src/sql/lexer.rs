//! Tokenizer for the SQL subset.

use crate::error::{EngineError, Result};

/// A lexical token. Keywords are recognized case-insensitively and carried
/// as upper-cased `Keyword`s; identifiers keep their original spelling.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// SQL keyword (SELECT, FROM, WHERE, ...), upper-cased.
    Keyword(String),
    /// Column/table/alias identifier.
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// A symbol / operator: `( ) , ; * + - / = <> <= >= < >`.
    Symbol(&'static str),
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "AS", "AND", "OR", "NOT", "BETWEEN", "SUM",
    "COUNT", "AVG", "MIN", "MAX",
];

/// Split `text` into tokens.
pub fn tokenize(text: &str) -> Result<Vec<Token>> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '(' | ')' | ',' | ';' | '*' | '+' | '-' | '/' | '=' => {
                out.push(Token::Symbol(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ';' => ";",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    _ => "=",
                }));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol("<="));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::Symbol("<>"));
                    i += 2;
                } else {
                    out.push(Token::Symbol("<"));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol(">="));
                    i += 2;
                } else {
                    out.push(Token::Symbol(">"));
                    i += 1;
                }
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Symbol("<>"));
                i += 2;
            }
            '\'' => {
                // Copy the literal in runs between quotes: a quote byte never
                // occurs inside a multi-byte UTF-8 sequence, so every run is
                // a whole-character slice of `text`.
                let mut s = String::new();
                i += 1;
                let mut run = i;
                loop {
                    match bytes.get(i) {
                        None => return Err(EngineError::Sql("unterminated string literal".into())),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push_str(&text[run..=i]);
                            i += 2;
                            run = i;
                        }
                        Some(b'\'') => {
                            s.push_str(&text[run..i]);
                            i += 1;
                            break;
                        }
                        Some(_) => i += 1,
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let lit = &text[start..i];
                // Overflowing literals parse to ±∞, which has no literal
                // spelling to normalize back to: reject them here.
                let v: f64 = lit
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite())
                    .ok_or_else(|| EngineError::Sql(format!("bad numeric literal `{lit}`")))?;
                out.push(Token::Number(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &text[start..i];
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    out.push(Token::Keyword(upper));
                } else {
                    out.push(Token::Ident(word.to_string()));
                }
            }
            other => {
                return Err(EngineError::Sql(format!(
                    "unexpected character `{other}` in query"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_figure2_query() {
        let toks = tokenize(
            "select l_returnflag, sum(l_quantity) from lineitem \
             where l_shipdate <= '01-SEP-98' group by l_returnflag;",
        )
        .unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Ident("l_returnflag".into()));
        assert!(toks.contains(&Token::Str("01-SEP-98".into())));
        assert!(toks.contains(&Token::Symbol("<=")));
        assert_eq!(*toks.last().unwrap(), Token::Symbol(";"));
    }

    #[test]
    fn numbers_and_operators() {
        let toks = tokenize("1.5 + 2e3 >= .25 <> != x").unwrap();
        assert_eq!(toks[0], Token::Number(1.5));
        assert_eq!(toks[2], Token::Number(2000.0));
        assert_eq!(toks[3], Token::Symbol(">="));
        assert_eq!(toks[4], Token::Number(0.25));
        assert_eq!(toks[5], Token::Symbol("<>"));
        assert_eq!(toks[6], Token::Symbol("<>")); // != normalizes
    }

    #[test]
    fn string_escaping() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks[0], Token::Str("it's".into()));
        assert!(tokenize("'open").is_err());
        let toks = tokenize("'Zürich ''n'' 東京'").unwrap();
        assert_eq!(toks[0], Token::Str("Zürich 'n' 東京".into()));
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("SeLeCt CoUnT gRoUp").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Keyword("COUNT".into()));
        assert_eq!(toks[2], Token::Keyword("GROUP".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("select @foo").is_err());
        // Overflow to ±∞ has no literal spelling to normalize back to.
        assert!(tokenize("x < 1e999").is_err());
    }
}
