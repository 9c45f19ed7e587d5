//! Tokenizer for the TelegraphCQ query dialect.
//!
//! Tokens borrow from the query text: an identifier is a slice of it, and
//! so is a string literal unless it escapes a quote (`''`), the one case
//! that needs a string of its own.

use std::borrow::Cow;
use std::fmt;

use tcq_common::{Result, TcqError};

/// One token with its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// Kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset in the source text.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TokenKind<'a> {
    /// Identifier or keyword (case preserved; compare case-insensitively).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `=` (also accepts `==`)
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// End of input.
    #[default]
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier '{s}'"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Float(v) => write!(f, "float {v}"),
            TokenKind::Str(s) => write!(f, "string '{s}'"),
            TokenKind::Eof => write!(f, "end of input"),
            other => {
                let s = match other {
                    TokenKind::LParen => "(",
                    TokenKind::RParen => ")",
                    TokenKind::LBrace => "{",
                    TokenKind::RBrace => "}",
                    TokenKind::Comma => ",",
                    TokenKind::Semi => ";",
                    TokenKind::Dot => ".",
                    TokenKind::Star => "*",
                    TokenKind::Slash => "/",
                    TokenKind::Plus => "+",
                    TokenKind::Minus => "-",
                    TokenKind::Eq => "=",
                    TokenKind::Ne => "!=",
                    TokenKind::Lt => "<",
                    TokenKind::Le => "<=",
                    TokenKind::Gt => ">",
                    TokenKind::Ge => ">=",
                    TokenKind::PlusPlus => "++",
                    TokenKind::MinusMinus => "--",
                    TokenKind::PlusEq => "+=",
                    TokenKind::MinusEq => "-=",
                    _ => unreachable!(),
                };
                write!(f, "'{s}'")
            }
        }
    }
}

/// Tokenize `src`. SQL-style `--` is NOT a comment here (it is the for-loop
/// decrement); comments use `/* ... */`.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>> {
    let bytes = src.as_bytes();
    // A token and the space after it take about four bytes of SQL: sized
    // so, a typical query's tokens fit the first allocation.
    let mut tokens = Vec::with_capacity(src.len() / 4 + 2);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // block comment
                let mut j = i + 2;
                loop {
                    if j + 1 >= bytes.len() {
                        return Err(TcqError::parse_at("unterminated comment", start));
                    }
                    if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        break;
                    }
                    j += 1;
                }
                i = j + 2;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            '{' => {
                tokens.push(Token {
                    kind: TokenKind::LBrace,
                    offset: start,
                });
                i += 1;
            }
            '}' => {
                tokens.push(Token {
                    kind: TokenKind::RBrace,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                tokens.push(Token {
                    kind: TokenKind::Semi,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    offset: start,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: start,
                });
                i += 1;
            }
            '/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    offset: start,
                });
                i += 1;
            }
            '+' => {
                if bytes.get(i + 1) == Some(&b'+') {
                    tokens.push(Token {
                        kind: TokenKind::PlusPlus,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::PlusEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Plus,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    tokens.push(Token {
                        kind: TokenKind::MinusMinus,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::MinusEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Minus,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '=' => {
                // accept both '=' and '=='
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                } else {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(TcqError::parse_at("expected '=' after '!'", start));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '\'' => {
                // The literal is borrowed up to its first escaped quote;
                // from there it is copied, one run between quotes at a time.
                let mut j = i + 1;
                let mut run = j;
                let mut s = Cow::Borrowed("");
                loop {
                    if j >= bytes.len() {
                        return Err(TcqError::parse_at("unterminated string literal", start));
                    }
                    if bytes[j] == b'\'' {
                        // '' escapes a quote
                        if bytes.get(j + 1) == Some(&b'\'') {
                            s.to_mut().push_str(&src[run..=j]);
                            j += 2;
                            run = j;
                            continue;
                        }
                        break;
                    }
                    j += 1;
                }
                match &mut s {
                    Cow::Borrowed(_) => s = Cow::Borrowed(&src[run..j]),
                    Cow::Owned(owned) => owned.push_str(&src[run..j]),
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
                i = j + 1;
            }
            '0'..='9' => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let mut is_float = false;
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit())
                {
                    is_float = true;
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                let text = &src[i..j];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| TcqError::parse_at(format!("bad float '{text}'"), start))?;
                    tokens.push(Token {
                        kind: TokenKind::Float(v),
                        offset: start,
                    });
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| TcqError::parse_at(format!("bad integer '{text}'"), start))?;
                    tokens.push(Token {
                        kind: TokenKind::Int(v),
                        offset: start,
                    });
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(&src[i..j]),
                    offset: start,
                });
                i = j;
            }
            other => {
                return Err(TcqError::parse_at(
                    format!("unexpected character '{other}'"),
                    start,
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: src.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_paper_query_fragments() {
        use TokenKind::*;
        assert_eq!(
            kinds("WHERE stockSymbol = 'MSFT' and closingPrice > 50.00"),
            vec![
                Ident("WHERE"),
                Ident("stockSymbol"),
                Eq,
                Str("MSFT".into()),
                Ident("and"),
                Ident("closingPrice"),
                Gt,
                Float(50.0),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_for_loop_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("for (t = ST; t < ST + 50; t +=5 ){ WindowIs(S, t - 4, t); }"),
            vec![
                Ident("for"),
                LParen,
                Ident("t"),
                Eq,
                Ident("ST"),
                Semi,
                Ident("t"),
                Lt,
                Ident("ST"),
                Plus,
                Int(50),
                Semi,
                Ident("t"),
                PlusEq,
                Int(5),
                RParen,
                LBrace,
                Ident("WindowIs"),
                LParen,
                Ident("S"),
                Comma,
                Ident("t"),
                Minus,
                Int(4),
                Comma,
                Ident("t"),
                RParen,
                Semi,
                RBrace,
                Eof
            ]
        );
    }

    #[test]
    fn operators_and_equality_forms() {
        use TokenKind::*;
        assert_eq!(
            kinds("== != <> <= >= ++ -- += -="),
            vec![Eq, Ne, Ne, Le, Ge, PlusPlus, MinusMinus, PlusEq, MinusEq, Eof]
        );
    }

    #[test]
    fn string_escapes_and_errors() {
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::Str("it's".into()), TokenKind::Eof]
        );
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("€").is_err());
    }

    #[test]
    fn string_literals_borrow_the_text_unless_they_escape_a_quote() {
        let src = "'café' 'it''s'";
        let tokens = lex(src).unwrap();
        match &tokens[0].kind {
            TokenKind::Str(Cow::Borrowed(s)) => assert_eq!(*s, "café"),
            other => panic!("expected a borrowed string, got {other:?}"),
        }
        match &tokens[1].kind {
            TokenKind::Str(Cow::Owned(s)) => assert_eq!(s, "it's"),
            other => panic!("expected an unescaped string, got {other:?}"),
        }
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("SELECT /* everything */ *"),
            vec![TokenKind::Ident("SELECT"), TokenKind::Star, TokenKind::Eof]
        );
        assert!(lex("/* unterminated").is_err());
    }

    #[test]
    fn qualified_star() {
        use TokenKind::*;
        assert_eq!(kinds("c2.*"), vec![Ident("c2"), Dot, Star, Eof]);
    }
}
