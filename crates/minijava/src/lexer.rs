//! Lexer for the MiniJava subset. Tokens borrow their lexemes from the
//! source, so lexing allocates only the token vector.

use crate::error::MjError;

/// A token kind plus its lexeme where needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'a> {
    Ident(&'a str),
    // Keywords.
    Class,
    Extends,
    Static,
    Public,
    Void,
    New,
    This,
    Null,
    Return,
    If,
    Else,
    While,
    True,
    False,
    // Punctuation.
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Assign,
    EqEq,
    NotEq,
    Eof,
}

impl Tok<'_> {
    /// Short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Class => "`class`".into(),
            Tok::Extends => "`extends`".into(),
            Tok::Static => "`static`".into(),
            Tok::Public => "`public`".into(),
            Tok::Void => "`void`".into(),
            Tok::New => "`new`".into(),
            Tok::This => "`this`".into(),
            Tok::Null => "`null`".into(),
            Tok::Return => "`return`".into(),
            Tok::If => "`if`".into(),
            Tok::Else => "`else`".into(),
            Tok::While => "`while`".into(),
            Tok::True => "`true`".into(),
            Tok::False => "`false`".into(),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::Semi => "`;`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Dot => "`.`".into(),
            Tok::Assign => "`=`".into(),
            Tok::EqEq => "`==`".into(),
            Tok::NotEq => "`!=`".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    pub tok: Tok<'a>,
    pub line: usize,
    pub col: usize,
}

/// Tokenizes MiniJava source. `//` and `/* */` comments are skipped.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, MjError> {
    // Generated sources run about five bytes per token: one reservation
    // instead of a dozen doublings.
    let mut tokens = Vec::with_capacity(source.len() / 5 + 1);
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    macro_rules! advance {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            advance!();
            continue;
        }
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                advance!();
            }
            continue;
        }
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let (start_line, start_col) = (line, col);
            advance!();
            advance!();
            loop {
                if i + 1 >= bytes.len() {
                    return Err(MjError::new(start_line, start_col, "unterminated comment"));
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    advance!();
                    advance!();
                    break;
                }
                advance!();
            }
            continue;
        }
        let (tok_line, tok_col) = (line, col);
        let tok = if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                advance!();
            }
            let word = &source[start..i];
            match word {
                "class" => Tok::Class,
                "extends" => Tok::Extends,
                "static" => Tok::Static,
                "public" => Tok::Public,
                "void" => Tok::Void,
                "new" => Tok::New,
                "this" => Tok::This,
                "null" => Tok::Null,
                "return" => Tok::Return,
                "if" => Tok::If,
                "else" => Tok::Else,
                "while" => Tok::While,
                "true" => Tok::True,
                "false" => Tok::False,
                _ => Tok::Ident(word),
            }
        } else {
            let two = if i + 1 < bytes.len() {
                &source[i..i + 2]
            } else {
                ""
            };
            match two {
                "==" => {
                    advance!();
                    advance!();
                    tokens.push(Token {
                        tok: Tok::EqEq,
                        line: tok_line,
                        col: tok_col,
                    });
                    continue;
                }
                "!=" => {
                    advance!();
                    advance!();
                    tokens.push(Token {
                        tok: Tok::NotEq,
                        line: tok_line,
                        col: tok_col,
                    });
                    continue;
                }
                _ => {}
            }
            let tok = match c {
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b'[' => Tok::LBracket,
                b']' => Tok::RBracket,
                b';' => Tok::Semi,
                b',' => Tok::Comma,
                b'.' => Tok::Dot,
                b'=' => Tok::Assign,
                other => {
                    return Err(MjError::new(
                        tok_line,
                        tok_col,
                        format!("unexpected character `{}`", other as char),
                    ));
                }
            };
            advance!();
            tok
        };
        tokens.push(Token {
            tok,
            line: tok_line,
            col: tok_col,
        });
    }
    tokens.push(Token {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("class Foo extends Bar"),
            vec![
                Tok::Class,
                Tok::Ident("Foo"),
                Tok::Extends,
                Tok::Ident("Bar"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("x = y; a == b != c"),
            vec![
                Tok::Ident("x"),
                Tok::Assign,
                Tok::Ident("y"),
                Tok::Semi,
                Tok::Ident("a"),
                Tok::EqEq,
                Tok::Ident("b"),
                Tok::NotEq,
                Tok::Ident("c"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("x // line comment h1\n/* block\ncomment */ y"),
            vec![Tok::Ident("x"), Tok::Ident("y"), Tok::Eof]
        );
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = lex("x # y").unwrap_err();
        assert!(err.message.contains('#'));
        assert_eq!(err.col, 3);
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        assert!(lex("/* oops").is_err());
    }
}
