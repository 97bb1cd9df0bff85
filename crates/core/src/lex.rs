//! Lexer for the CHERI C subset.
//!
//! Preprocessor directives (`#include`, `#define` of simple object-like
//! macros) are handled here: includes are ignored (the standard headers'
//! relevant contents are built into the semantics), and object-like macros
//! are expanded textually.

use std::collections::HashMap;
use std::fmt;

/// Source position (1-based line, column).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Pos {
    /// Line number, 1-based.
    pub line: u32,
    /// Column number, 1-based.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal with suffix-derived unsignedness/longness.
    IntLit {
        /// The value.
        value: u128,
        /// `U` suffix present.
        unsigned: bool,
        /// `L`/`LL` suffix present.
        long: bool,
    },
    /// Floating-point literal; `single` when suffixed `f`.
    FloatLit {
        /// The value.
        value: f64,
        /// `f`/`F` suffix present (type `float`).
        single: bool,
    },
    /// Character literal (value of the character).
    CharLit(i64),
    /// String literal (unescaped contents).
    StrLit(String),
    /// Punctuation, e.g. `"+="`, `"->"`, `"("`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::IntLit { value, .. } => write!(f, "{value}"),
            Tok::FloatLit { value, .. } => write!(f, "{value}"),
            Tok::CharLit(c) => write!(f, "'{c}'"),
            Tok::StrLit(s) => write!(f, "{s:?}"),
            Tok::Punct(p) => write!(f, "{p}"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// Lexical error.
#[derive(Clone, Debug)]
pub struct LexError {
    /// What went wrong.
    pub msg: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for LexError {}

/// The punctuator at the start of `rest`, by the longest match (C11
/// 6.4.6p1, restricted to the subset's punctuators): a `match` on the
/// leading bytes, so a one-character punctuator costs one dispatch.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let (c, c1, c2) = (*rest.first()?, rest.get(1).copied(), rest.get(2).copied());
    Some(match (c, c1, c2) {
        (b'<', Some(b'<'), Some(b'=')) => "<<=",
        (b'<', Some(b'<'), _) => "<<",
        (b'<', Some(b'='), _) => "<=",
        (b'<', ..) => "<",
        (b'>', Some(b'>'), Some(b'=')) => ">>=",
        (b'>', Some(b'>'), _) => ">>",
        (b'>', Some(b'='), _) => ">=",
        (b'>', ..) => ">",
        (b'.', Some(b'.'), Some(b'.')) => "...",
        (b'.', ..) => ".",
        (b'-', Some(b'>'), _) => "->",
        (b'-', Some(b'-'), _) => "--",
        (b'-', Some(b'='), _) => "-=",
        (b'-', ..) => "-",
        (b'+', Some(b'+'), _) => "++",
        (b'+', Some(b'='), _) => "+=",
        (b'+', ..) => "+",
        (b'&', Some(b'&'), _) => "&&",
        (b'&', Some(b'='), _) => "&=",
        (b'&', ..) => "&",
        (b'|', Some(b'|'), _) => "||",
        (b'|', Some(b'='), _) => "|=",
        (b'|', ..) => "|",
        (b'=', Some(b'='), _) => "==",
        (b'=', ..) => "=",
        (b'!', Some(b'='), _) => "!=",
        (b'!', ..) => "!",
        (b'*', Some(b'='), _) => "*=",
        (b'*', ..) => "*",
        (b'/', Some(b'='), _) => "/=",
        (b'/', ..) => "/",
        (b'%', Some(b'='), _) => "%=",
        (b'%', ..) => "%",
        (b'^', Some(b'='), _) => "^=",
        (b'^', ..) => "^",
        (b'(', ..) => "(",
        (b')', ..) => ")",
        (b'[', ..) => "[",
        (b']', ..) => "]",
        (b'{', ..) => "{",
        (b'}', ..) => "}",
        (b';', ..) => ";",
        (b',', ..) => ",",
        (b'~', ..) => "~",
        (b'?', ..) => "?",
        (b':', ..) => ":",
        _ => return None,
    })
}

struct Lexer<'s> {
    src: &'s [u8],
    i: usize,
    line: u32,
    col: u32,
    macros: HashMap<String, Vec<Spanned>>,
}

impl Lexer<'_> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LexError> {
        Err(LexError {
            msg: msg.into(),
            pos: self.pos(),
        })
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if (c as char).is_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => return self.err("unterminated comment"),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_directive(&mut self) -> Result<(), LexError> {
        // Consume '#'. Directives occupy one (logical) line.
        self.bump();
        let start = self.i;
        while let Some(c) = self.peek() {
            if c == b'\n' {
                break;
            }
            self.bump();
        }
        let line = std::str::from_utf8(&self.src[start..self.i])
            .map_err(|_| LexError {
                msg: "non-UTF8 directive".into(),
                pos: self.pos(),
            })?
            .trim()
            .to_string();
        if let Some(rest) = line.strip_prefix("define") {
            let rest = rest.trim_start();
            let name_end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let (name, body) = rest.split_at(name_end);
            if !name.is_empty() && !body.starts_with('(') {
                // Object-like macro: lex the body now (it cannot itself
                // contain directives) and store the token sequence.
                let toks = lex(body.trim())?;
                let toks: Vec<Spanned> = toks
                    .into_iter()
                    .filter(|t| t.tok != Tok::Eof)
                    .collect();
                self.macros.insert(name.to_string(), toks);
            }
            // Function-like macros are not supported; tests do not use them.
        }
        // #include, #pragma, #if 0/#endif etc. are ignored (headers are
        // built in). Conditional compilation is not supported.
        Ok(())
    }

    fn lex_number(&mut self) -> Result<Tok, LexError> {
        let start = self.pos();
        // C11 6.4.4p2: an integer constant's value must be representable
        // in its type, and no type is wider than `unsigned long long`.
        let too_large = || LexError {
            msg: "integer literal is too large for any integer type (C11 6.4.4p2)".into(),
            pos: start,
        };
        let mut value: u128 = 0;
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x' | b'X')) {
            self.bump();
            self.bump();
            let mut any = false;
            while let Some(c) = self.peek() {
                let d = match c {
                    b'0'..=b'9' => c - b'0',
                    b'a'..=b'f' => c - b'a' + 10,
                    b'A'..=b'F' => c - b'A' + 10,
                    _ => break,
                };
                value = value
                    .checked_mul(16)
                    .and_then(|v| v.checked_add(u128::from(d)))
                    .ok_or_else(too_large)?;
                any = true;
                self.bump();
            }
            if !any {
                return self.err("empty hex literal");
            }
        } else {
            let octal = self.peek() == Some(b'0');
            let radix: u128 = if octal { 8 } else { 10 };
            while let Some(c) = self.peek() {
                if !c.is_ascii_digit() {
                    break;
                }
                let d = c - b'0';
                if octal && d > 7 {
                    return self.err("invalid octal digit");
                }
                value = value
                    .checked_mul(radix)
                    .and_then(|v| v.checked_add(u128::from(d)))
                    .ok_or_else(too_large)?;
                self.bump();
            }
        }
        // Floating-point continuation: a '.' or exponent makes this a
        // float literal (only for decimal literals).
        if self.peek() == Some(b'.') || matches!(self.peek(), Some(b'e' | b'E')) {
            let mut text = value.to_string();
            if self.peek() == Some(b'.') {
                self.bump();
                text.push('.');
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        text.push(c as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.bump();
                text.push('e');
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    text.push(self.bump().expect("sign") as char);
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        text.push(c as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            let mut single = false;
            if matches!(self.peek(), Some(b'f' | b'F')) {
                single = true;
                self.bump();
            } else if matches!(self.peek(), Some(b'l' | b'L')) {
                self.bump(); // long double: treated as double
            }
            let value: f64 = text.parse().map_err(|_| LexError {
                msg: format!("bad float literal {text}"),
                pos: self.pos(),
            })?;
            return Ok(Tok::FloatLit { value, single });
        }
        let mut unsigned = false;
        let mut long = false;
        while let Some(c) = self.peek() {
            match c {
                b'u' | b'U' => {
                    unsigned = true;
                    self.bump();
                }
                b'l' | b'L' => {
                    long = true;
                    self.bump();
                }
                _ => break,
            }
        }
        if value > u128::from(u64::MAX) {
            return Err(too_large());
        }
        Ok(Tok::IntLit {
            value,
            unsigned,
            long,
        })
    }

    /// An escape sequence (C11 6.4.4.4), the backslash at `at` already
    /// consumed. Octal escapes take one to three digits and hexadecimal
    /// ones any number; the value of either must fit `unsigned char`
    /// (6.4.4.4p9).
    fn lex_escape(&mut self, at: Pos) -> Result<u8, LexError> {
        let fail = |msg: String| Err(LexError { msg, pos: at });
        let out_of_range = |base: &str| {
            format!("{base} escape sequence out of range for `unsigned char` (C11 6.4.4.4p9)")
        };
        let c = match self.bump() {
            Some(c) => c,
            None => return fail("unterminated escape sequence".into()),
        };
        Ok(match c {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'a' => 0x07,
            b'b' => 0x08,
            b'f' => 0x0C,
            b'v' => 0x0B,
            b'\\' | b'\'' | b'"' | b'?' => c,
            b'0'..=b'7' => {
                let mut v = u32::from(c - b'0');
                for _ in 0..2 {
                    match self.peek() {
                        Some(d @ b'0'..=b'7') => {
                            v = v * 8 + u32::from(d - b'0');
                            self.bump();
                        }
                        _ => break,
                    }
                }
                match u8::try_from(v) {
                    Ok(v) => v,
                    Err(_) => return fail(out_of_range("octal")),
                }
            }
            b'x' => {
                let mut v: u32 = 0;
                let mut any = false;
                while let Some(d) = self.peek().and_then(|d| (d as char).to_digit(16)) {
                    // Saturate: any value above 0xFF is already an error.
                    v = (v * 16 + d).min(0x100);
                    any = true;
                    self.bump();
                }
                if !any {
                    return fail("`\\x` used with no following hex digits (C11 6.4.4.4p1)".into());
                }
                match u8::try_from(v) {
                    Ok(v) => v,
                    Err(_) => return fail(out_of_range("hexadecimal")),
                }
            }
            _ => {
                return fail(format!(
                    "unknown escape sequence `\\{}` (C11 6.4.4.4p1)",
                    c.escape_ascii()
                ))
            }
        })
    }

    fn next_token(&mut self) -> Result<Option<Spanned>, LexError> {
        loop {
            self.skip_ws_and_comments()?;
            match self.peek() {
                None => return Ok(None),
                Some(b'#') => self.lex_directive()?,
                _ => break,
            }
        }
        let pos = self.pos();
        let c = self.peek().expect("peeked above");
        let tok = if c.is_ascii_digit() {
            self.lex_number()?
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.i;
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    self.bump();
                } else {
                    break;
                }
            }
            Tok::Ident(String::from_utf8_lossy(&self.src[start..self.i]).into_owned())
        } else if c == b'\'' {
            self.bump();
            let at = self.pos();
            let v = match self.bump() {
                Some(b'\\') => i64::from(self.lex_escape(at)?),
                Some(c) => i64::from(c),
                None => return self.err("unterminated char literal"),
            };
            if self.bump() != Some(b'\'') {
                return self.err("unterminated char literal");
            }
            Tok::CharLit(v)
        } else if c == b'"' {
            self.bump();
            let mut s = Vec::new();
            loop {
                let at = self.pos();
                match self.bump() {
                    Some(b'"') => break,
                    Some(b'\\') => s.push(self.lex_escape(at)?),
                    Some(c) => s.push(c),
                    None => return self.err("unterminated string literal"),
                }
            }
            Tok::StrLit(String::from_utf8_lossy(&s).into_owned())
        } else {
            match punct(&self.src[self.i..]) {
                Some(p) => {
                    // A punctuator is on one line: advance without the
                    // newline check of `bump`.
                    self.i += p.len();
                    self.col += p.len() as u32;
                    Tok::Punct(p)
                }
                None => return self.err(format!("unexpected character {:?}", c as char)),
            }
        };
        Ok(Some(Spanned { tok, pos }))
    }
}

/// Tokenise `src`, expanding object-like `#define` macros and ignoring other
/// preprocessor directives.
///
/// # Errors
///
/// Returns a [`LexError`] on malformed input.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
        macros: HashMap::new(),
    };
    let mut out = Vec::new();
    while let Some(t) = lx.next_token()? {
        // Most programs define no macro: then no identifier is hashed.
        let expansion = match &t.tok {
            Tok::Ident(name) if !lx.macros.is_empty() => lx.macros.get(name),
            _ => None,
        };
        if let Some(expansion) = expansion {
            out.extend(expansion.iter().cloned().map(|mut s| {
                s.pos = t.pos;
                s
            }));
            continue;
        }
        out.push(t);
    }
    out.push(Spanned {
        tok: Tok::Eof,
        pos: lx.pos(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("int x = 42;"),
            vec![
                Tok::Ident("int".into()),
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::IntLit {
                    value: 42,
                    unsigned: false,
                    long: false
                },
                Tok::Punct(";"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn hex_and_suffixes() {
        assert_eq!(
            toks("0xFFul")[0],
            Tok::IntLit {
                value: 255,
                unsigned: true,
                long: true
            }
        );
        assert_eq!(
            toks("0777")[0],
            Tok::IntLit {
                value: 0o777,
                unsigned: false,
                long: false
            }
        );
    }

    #[test]
    fn comments_and_includes_ignored() {
        let t = toks("#include <stdint.h>\n// line\n/* block */ x");
        assert_eq!(t, vec![Tok::Ident("x".into()), Tok::Eof]);
    }

    #[test]
    fn object_macros_expand() {
        let t = toks("#define N 3\nint a[N];");
        assert!(t.contains(&Tok::IntLit {
            value: 3,
            unsigned: false,
            long: false
        }));
    }

    #[test]
    fn multi_char_punct_longest_match() {
        assert_eq!(toks("a->b")[1], Tok::Punct("->"));
        assert_eq!(toks("x <<= 2")[1], Tok::Punct("<<="));
        assert_eq!(toks("x <= 2")[1], Tok::Punct("<="));
    }

    #[test]
    fn char_and_string_literals() {
        assert_eq!(toks(r"'\n'")[0], Tok::CharLit(10));
        assert_eq!(toks("'A'")[0], Tok::CharLit(65));
        assert_eq!(toks(r#""hi\n""#)[0], Tok::StrLit("hi\n".into()));
    }

    #[test]
    fn c11_escape_sequences() {
        for (src, v) in [
            (r"'\a'", 7),
            (r"'\b'", 8),
            (r"'\f'", 12),
            (r"'\v'", 11),
            (r"'\?'", 63),
            (r"'\0'", 0),
            (r"'\7'", 7),
            (r"'\12'", 10),
            (r"'\101'", 65),
            (r"'\377'", 255),
            (r"'\x41'", 65),
            (r"'\xff'", 255),
            (r"'\x00000041'", 65),
        ] {
            assert_eq!(toks(src)[0], Tok::CharLit(v), "{src}");
        }
        // An octal escape stops after three digits or at a non-octal digit.
        assert_eq!(toks(r#""x\012y""#)[0], Tok::StrLit("x\ny".into()));
        assert_eq!(toks(r#""\1011""#)[0], Tok::StrLit("A1".into()));
        assert_eq!(toks(r#""\08""#)[0], Tok::StrLit("\u{0}8".into()));
    }

    #[test]
    fn bad_escape_sequences_are_positioned_errors() {
        for (src, col, msg) in [
            (r"x = '\400';", 6, "octal escape sequence out of range"),
            (r"x = '\x100';", 6, "hexadecimal escape sequence out of range"),
            (r#"s = "ab\x123456789";"#, 8, "hexadecimal escape sequence out of range"),
            (r"x = '\x';", 6, "used with no following hex digits"),
            (r"x = '\q';", 6, r"unknown escape sequence `\q`"),
        ] {
            let e = lex(src).expect_err(src);
            assert_eq!(e.pos, Pos { line: 1, col }, "{src}: {e}");
            assert!(e.msg.contains(msg), "{src}: {e}");
        }
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("int\n  x;").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }
}
