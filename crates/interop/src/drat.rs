//! The DRAT/DRUP clausal proof format, text and binary.
//!
//! A DRAT proof is a flat list of clause *additions* and *deletions*
//! against an implicit, growing clause database — no hints, no clause
//! ids. The two wire encodings are the ones drat-trim standardised:
//!
//! - **text** — one step per line, literals in DIMACS numbering
//!   terminated by `0`; a leading `d` marks a deletion; `c` lines are
//!   comments.
//! - **binary** — each step starts with an `a` (0x61) or `d` (0x64)
//!   byte, followed by the literals as 7-bit variable-length integers
//!   of the mapping `2·|l| + (l < 0)`, terminated by a single 0x00
//!   byte. The mapping leaves code 0 free to be the terminator, which
//!   is why the encoding has no sign bit to confuse truncation with.
//!
//! The parser classifies every rejection as an *input* error
//! ([`crate::InteropErrorKind::Input`]): a file that does not tokenize
//! is not a bad proof, it is not a proof at all.

use crate::error::InteropError;
use crate::tokens::parse_i64;
use std::io::Write;

/// One parsed DRAT proof step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DratStep {
    /// Add a clause (DIMACS literals, unsorted, as written).
    Add(Vec<i64>),
    /// Delete a clause, matched by its literal set.
    Delete(Vec<i64>),
}

impl DratStep {
    /// The literals of the step, whichever kind it is.
    pub fn lits(&self) -> &[i64] {
        match self {
            DratStep::Add(lits) | DratStep::Delete(lits) => lits,
        }
    }
}

/// Sniffs the binary encoding: a DRAT file whose first byte is `a`/`d`
/// *could* be text, but text proofs start with a digit, `-`, `d `, `c`
/// or whitespace — the unambiguous tell is a 0x61/0x64 first byte
/// followed by a byte that is not valid text (binary literal codes are
/// almost never printable separators).
pub fn looks_binary(bytes: &[u8]) -> bool {
    // Binary steps open with 'a' (0x61); a text proof can open with
    // 'd' or 'c' but never with 'a'. A text deletion is always "d ",
    // a binary deletion's next byte is a varint that is never 0x20.
    match bytes {
        [0x61, ..] => true,
        [0x64, next, ..] => !next.is_ascii_whitespace(),
        _ => false,
    }
}

/// Parses a text DRAT proof.
///
/// # Errors
///
/// [`InteropError`] of kind `Input` on any malformed token, a clause
/// missing its `0` terminator, or a stray `d` with no clause.
pub fn parse_text(text: &str) -> Result<Vec<DratStep>, InteropError> {
    let mut steps = Vec::new();
    // One buffer for every line: each step gets an exact-size copy
    // instead of a vector grown token by token.
    let mut lits = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let at = Some(lineno as u64 + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (is_delete, rest) = match line.strip_prefix('d') {
            Some(rest) if rest.starts_with(|c: char| c.is_ascii_whitespace()) => (true, rest),
            Some(_) => {
                return Err(InteropError::input(
                    at,
                    format!("unrecognised DRAT line {line:?}"),
                ))
            }
            None => (false, line),
        };
        lits.clear();
        let mut terminated = false;
        for tok in rest.split_ascii_whitespace() {
            if terminated {
                return Err(InteropError::input(
                    at,
                    format!("trailing token {tok:?} after clause terminator"),
                ));
            }
            let lit = parse_i64(tok).ok_or_else(|| {
                InteropError::input(at, format!("bad DRAT literal token {tok:?}"))
            })?;
            if lit == 0 {
                terminated = true;
            } else {
                lits.push(lit);
            }
        }
        if !terminated {
            return Err(InteropError::input(at, "clause missing its 0 terminator"));
        }
        steps.push(if is_delete {
            DratStep::Delete(lits.clone())
        } else {
            DratStep::Add(lits.clone())
        });
    }
    Ok(steps)
}

/// Maps a DIMACS literal into the binary-DRAT unsigned code
/// `2·|l| + (l < 0)`.
fn lit_code(lit: i64) -> u64 {
    (lit.unsigned_abs() << 1) | u64::from(lit < 0)
}

/// Inverse of [`lit_code`]; `None` when the code overflows `i64` or is
/// the reserved terminator 0.
fn code_lit(code: u64) -> Option<i64> {
    let var = code >> 1;
    if var == 0 || var > i64::MAX as u64 {
        return None;
    }
    let var = var as i64;
    Some(if code & 1 == 1 { -var } else { var })
}

/// Reads one binary varint (7-bit groups, MSB continuation).
fn read_varint(bytes: &[u8], pos: &mut usize, at: u64) -> Result<u64, InteropError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(InteropError::input(
                Some(at),
                "truncated varint in binary DRAT stream",
            ));
        };
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(InteropError::input(
                Some(at),
                "binary DRAT varint overflows u64",
            ));
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(InteropError::input(
                Some(at),
                "binary DRAT varint overflows u64",
            ));
        }
    }
}

fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Parses a binary DRAT proof.
///
/// # Errors
///
/// [`InteropError`] of kind `Input` on an unknown step tag, a truncated
/// or overlong varint, a literal code that decodes to variable 0, or a
/// clause cut off before its 0x00 terminator.
pub fn parse_binary(bytes: &[u8]) -> Result<Vec<DratStep>, InteropError> {
    let mut steps = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let at = steps.len() as u64 + 1;
        let tag = bytes[pos];
        pos += 1;
        let is_delete = match tag {
            0x61 => false,
            0x64 => true,
            other => {
                return Err(InteropError::input(
                    Some(at),
                    format!("unknown binary DRAT step tag {other:#04x}"),
                ))
            }
        };
        let mut lits = Vec::new();
        loop {
            if pos >= bytes.len() {
                return Err(InteropError::input(
                    Some(at),
                    "binary DRAT clause cut off before its 0 terminator",
                ));
            }
            let code = read_varint(bytes, &mut pos, at)?;
            if code == 0 {
                break;
            }
            let lit = code_lit(code).ok_or_else(|| {
                InteropError::input(Some(at), format!("bad binary DRAT literal code {code}"))
            })?;
            lits.push(lit);
        }
        steps.push(if is_delete {
            DratStep::Delete(lits)
        } else {
            DratStep::Add(lits)
        });
    }
    Ok(steps)
}

/// Parses a DRAT proof, sniffing text vs binary by the first bytes.
///
/// # Errors
///
/// `Input` errors from the underlying parser; non-UTF-8 bytes on the
/// text path are an input error too.
pub fn parse(bytes: &[u8]) -> Result<Vec<DratStep>, InteropError> {
    if looks_binary(bytes) {
        parse_binary(bytes)
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| InteropError::input(None, format!("DRAT file is not UTF-8: {e}")))?;
        parse_text(text)
    }
}

/// Renders steps in the text encoding.
pub fn write_text<W: Write>(mut out: W, steps: &[DratStep]) -> std::io::Result<()> {
    for step in steps {
        if matches!(step, DratStep::Delete(_)) {
            out.write_all(b"d ")?;
        }
        for lit in step.lits() {
            write!(out, "{lit} ")?;
        }
        out.write_all(b"0\n")?;
    }
    Ok(())
}

/// Renders steps in the binary encoding.
pub fn write_binary(steps: &[DratStep]) -> Vec<u8> {
    let mut out = Vec::new();
    for step in steps {
        out.push(if matches!(step, DratStep::Delete(_)) {
            0x64
        } else {
            0x61
        });
        for &lit in step.lits() {
            write_varint(&mut out, lit_code(lit));
        }
        out.push(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::InteropErrorKind;

    #[test]
    fn text_roundtrip() {
        let steps = vec![
            DratStep::Add(vec![1, -2, 3]),
            DratStep::Delete(vec![-1, 2]),
            DratStep::Add(vec![]),
        ];
        let mut buf = Vec::new();
        write_text(&mut buf, &steps).unwrap();
        assert_eq!(String::from_utf8_lossy(&buf), "1 -2 3 0\nd -1 2 0\n0\n");
        assert_eq!(parse(&buf).unwrap(), steps);
    }

    #[test]
    fn binary_roundtrip() {
        let steps = vec![
            DratStep::Add(vec![1, -2, 129]),
            DratStep::Delete(vec![-129]),
            DratStep::Add(vec![]),
        ];
        let bytes = write_binary(&steps);
        assert!(looks_binary(&bytes));
        assert_eq!(parse(&bytes).unwrap(), steps);
    }

    #[test]
    fn binary_zero_terminator_only_is_rejected() {
        // A lone 0x00 with no step tag is not a step.
        let err = parse_binary(&[0x00]).unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::Input);
    }

    #[test]
    fn binary_max_var_literal_roundtrips() {
        // The largest variable the code mapping can carry in an i64.
        let max = i64::MAX;
        let steps = vec![DratStep::Add(vec![max, -max])];
        let bytes = write_binary(&steps);
        assert_eq!(parse_binary(&bytes).unwrap(), steps);
    }

    #[test]
    fn binary_truncation_is_input_error() {
        let bytes = write_binary(&[DratStep::Add(vec![1000, -2000, 3000])]);
        for cut in 1..bytes.len() {
            match parse_binary(&bytes[..cut]) {
                Err(e) => assert_eq!(e.kind, InteropErrorKind::Input, "cut at {cut}"),
                Ok(steps) => {
                    // A cut exactly after a full step parses clean.
                    assert!(cut == bytes.len(), "unexpected accept at {cut}: {steps:?}")
                }
            }
        }
    }

    #[test]
    fn binary_literal_code_zero_variable_is_rejected() {
        // Code 1 decodes to variable 0 (negative phase) — reserved.
        let err = parse_binary(&[0x61, 0x01, 0x00]).unwrap_err();
        assert_eq!(err.kind, InteropErrorKind::Input);
    }

    #[test]
    fn text_rejections() {
        for bad in ["1 2", "1 x 0", "d\n", "1 0 2 0", "delete 1 0"] {
            let err = parse_text(bad).unwrap_err();
            assert_eq!(err.kind, InteropErrorKind::Input, "{bad:?}");
        }
    }

    #[test]
    fn text_comments_and_blanks_are_skipped() {
        let steps = parse_text("c comment\n\n1 0\n").unwrap();
        assert_eq!(steps, vec![DratStep::Add(vec![1])]);
    }
}
