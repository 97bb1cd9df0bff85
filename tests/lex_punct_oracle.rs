//! The lexer finds punctuators with a `match` on the leading bytes. This
//! checks it against the linear scan it replaced, a longest-match-first
//! table walked with `starts_with`, kept here as the oracle:
//!
//! * every string of one to four bytes over the punctuator alphabet lexes
//!   to exactly the tokens and positions the scan gives;
//! * at every punctuator of the Table-1 sources and the first 128 progen
//!   sources of each family, the scan finds the same punctuator.

#[allow(dead_code)] // only `corpus_sources` is used here
mod common;

use cheri_c::core::lex::{lex, Pos, Tok};

/// The old punctuator table: three-character punctuators first, then
/// two-character, then one-character, so the first match is the longest.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "&=", "|=", "^=", "(", ")", "[", "]", "{", "}", ";", ",", ".", "+",
    "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", "?", ":",
];

/// Every byte that starts or continues a punctuator.
const ALPHABET: &[u8] = b"<>=!&|+-*/%^~?:.;,()[]{}";

fn scan(rest: &[u8]) -> Option<&'static str> {
    PUNCTS
        .iter()
        .find(|p| rest.starts_with(p.as_bytes()))
        .copied()
}

/// The token stream of a one-line string over [`ALPHABET`] by the scan:
/// `//` and `/* */` are comments, everything else is punctuators. `None`
/// for an unterminated block comment.
fn by_scan(src: &[u8]) -> Option<Vec<(Tok, Pos)>> {
    let col = |i: usize| Pos {
        line: 1,
        col: i as u32 + 1,
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < src.len() {
        let rest = &src[i..];
        if rest.starts_with(b"//") {
            i = src.len();
        } else if rest.starts_with(b"/*") {
            let close = rest[2..].windows(2).position(|w| w == b"*/")?;
            i += 2 + close + 2;
        } else {
            let p = scan(rest).expect("every alphabet byte starts a punctuator");
            out.push((Tok::Punct(p), col(i)));
            i += p.len();
        }
    }
    out.push((Tok::Eof, col(src.len())));
    Some(out)
}

#[test]
fn every_short_punctuator_string_lexes_as_the_scan_does() {
    let mut buf = Vec::with_capacity(4);
    let mut checked = 0usize;
    for len in 1..=4u32 {
        for mut n in 0..ALPHABET.len().pow(len) {
            buf.clear();
            for _ in 0..len {
                buf.push(ALPHABET[n % ALPHABET.len()]);
                n /= ALPHABET.len();
            }
            let src = std::str::from_utf8(&buf).expect("ASCII");
            let got = lex(src)
                .ok()
                .map(|ts| ts.into_iter().map(|t| (t.tok, t.pos)).collect::<Vec<_>>());
            assert_eq!(got, by_scan(&buf), "{src:?}");
            checked += 1;
        }
    }
    assert_eq!(checked, 24 + 24 * 24 + 24 * 24 * 24 + 24 * 24 * 24 * 24);
}

#[test]
fn corpus_punctuators_match_the_scan() {
    let mut checked = 0usize;
    for (name, src) in common::corpus_sources() {
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(src.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        for t in lex(&src).unwrap_or_else(|e| panic!("{name}: {e}")) {
            let Tok::Punct(p) = t.tok else { continue };
            let off = line_starts[t.pos.line as usize - 1] + t.pos.col as usize - 1;
            let rest = &src.as_bytes()[off..];
            // A token expanded from an object-like macro carries the
            // position of the macro's name.
            if rest[0].is_ascii_alphabetic() || rest[0] == b'_' {
                continue;
            }
            assert_eq!(Some(p), scan(rest), "{name} at {}", t.pos);
            checked += 1;
        }
    }
    assert!(checked > 10_000, "only {checked} punctuators checked");
}
