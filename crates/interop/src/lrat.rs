//! The LRAT annotated clausal proof format, text and binary.
//!
//! LRAT extends DRAT with clause ids and *hints*: every addition names
//! the clauses whose unit propagation refutes its negation, so a
//! checker needs no search at all — the property that lets this crate
//! map hint lines straight onto resolve-trace antecedent chains.
//!
//! - **text** — `<id> <lits> 0 <hints> 0` for additions, where hints
//!   are clause ids and a *negative* hint opens a RAT resolvent group;
//!   `<id> d <ids> 0` for deletions; `c` lines are comments.
//! - **binary** — an `a` (0x61) byte, the clause id as an unsigned
//!   varint, the literals in the DRAT code mapping `2·|l| + (l < 0)`
//!   terminated by 0x00, then the hints in the *signed* mapping
//!   `2·|h| + (h < 0)` terminated by 0x00; deletions are a `d` (0x64)
//!   byte followed by the deleted ids as unsigned varints terminated
//!   by 0x00 (a binary deletion carries no id of its own, matching the
//!   drat-trim tooling).
//!
//! As with DRAT, everything the *parser* rejects is an input error;
//! whether the hints actually support the clause is the ingestion
//! engine's judgement ([`crate::ingest`]).

use crate::error::InteropError;
use crate::tokens::{parse_i64, parse_u64};
use std::io::Write;

/// One parsed LRAT proof step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LratStep {
    /// Add clause `id` with `lits`, justified by `hints` (negative
    /// hints open RAT groups).
    Add {
        /// The id the rest of the proof uses for this clause.
        id: u64,
        /// DIMACS literals, as written.
        lits: Vec<i64>,
        /// Hint ids; a negative value `-d` introduces the resolvent
        /// group against clause `d`.
        hints: Vec<i64>,
    },
    /// Delete the clauses with the given ids.
    Delete {
        /// Ids to drop from the active database.
        ids: Vec<u64>,
    },
}

/// Sniffs the binary encoding, same tell as binary DRAT: a text LRAT
/// line always starts with a digit or `c`, never with `a`/`d`.
pub fn looks_binary(bytes: &[u8]) -> bool {
    matches!(bytes, [0x61 | 0x64, ..])
}

/// Parses a text LRAT proof.
///
/// # Errors
///
/// [`InteropError`] of kind `Input` on malformed tokens, a missing
/// terminator, a zero/negative clause id, or a deletion id of zero.
pub fn parse_text(text: &str) -> Result<Vec<LratStep>, InteropError> {
    let mut steps = Vec::new();
    // Buffers shared by every line: each step gets exact-size copies
    // instead of vectors grown token by token.
    let (mut ids, mut lits, mut hints) = (Vec::new(), Vec::new(), Vec::new());
    for (lineno, line) in text.lines().enumerate() {
        let at = Some(lineno as u64 + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut toks = line.split_ascii_whitespace();
        let id_tok = toks.next().expect("non-empty line has a first token");
        let id = parse_u64(id_tok)
            .filter(|&id| id > 0)
            .ok_or_else(|| InteropError::input(at, format!("bad LRAT clause id {id_tok:?}")))?;
        let mut toks = toks.peekable();
        if toks.next_if_eq(&"d").is_some() {
            ids.clear();
            let mut terminated = false;
            for tok in toks {
                if terminated {
                    return Err(InteropError::input(
                        at,
                        format!("trailing token {tok:?} after deletion terminator"),
                    ));
                }
                let v = parse_u64(tok).ok_or_else(|| {
                    InteropError::input(at, format!("bad LRAT deletion id {tok:?}"))
                })?;
                if v == 0 {
                    terminated = true;
                } else {
                    ids.push(v);
                }
            }
            if !terminated {
                return Err(InteropError::input(at, "deletion missing its 0 terminator"));
            }
            steps.push(LratStep::Delete { ids: ids.clone() });
            continue;
        }
        // Addition: literals up to the first 0, hints up to the second.
        lits.clear();
        hints.clear();
        let mut section = 0usize;
        for tok in toks {
            let v = parse_i64(tok)
                .ok_or_else(|| InteropError::input(at, format!("bad LRAT token {tok:?}")))?;
            if v == 0 {
                section += 1;
                if section == 2 {
                    continue;
                }
            } else if section == 0 {
                lits.push(v);
            } else if section == 1 {
                hints.push(v);
            } else {
                return Err(InteropError::input(
                    at,
                    format!("trailing token {tok:?} after hint terminator"),
                ));
            }
        }
        if section < 2 {
            return Err(InteropError::input(
                at,
                "LRAT addition needs two 0 terminators (literals, hints)",
            ));
        }
        steps.push(LratStep::Add {
            id,
            lits: lits.clone(),
            hints: hints.clone(),
        });
    }
    Ok(steps)
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

fn read_varint(bytes: &[u8], pos: &mut usize, at: u64) -> Result<u64, InteropError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(InteropError::input(
                Some(at),
                "truncated varint in binary LRAT stream",
            ));
        };
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(InteropError::input(
                Some(at),
                "binary LRAT varint overflows u64",
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
                "binary LRAT varint overflows u64",
            ));
        }
    }
}

/// Signed value in the `2·|v| + (v < 0)` mapping; 0 is the terminator.
fn signed_code(v: i64) -> u64 {
    (v.unsigned_abs() << 1) | u64::from(v < 0)
}

fn code_signed(code: u64) -> Option<i64> {
    let mag = code >> 1;
    if mag == 0 || mag > i64::MAX as u64 {
        return None;
    }
    let mag = mag as i64;
    Some(if code & 1 == 1 { -mag } else { mag })
}

/// Parses a binary LRAT proof.
///
/// # Errors
///
/// [`InteropError`] of kind `Input` on an unknown tag or any truncated
/// or out-of-range varint.
pub fn parse_binary(bytes: &[u8]) -> Result<Vec<LratStep>, InteropError> {
    let mut steps = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let at = steps.len() as u64 + 1;
        let tag = bytes[pos];
        pos += 1;
        match tag {
            0x61 => {
                let id = read_varint(bytes, &mut pos, at)?;
                if id == 0 {
                    return Err(InteropError::input(Some(at), "binary LRAT clause id 0"));
                }
                let mut lits = Vec::new();
                loop {
                    let code = read_varint(bytes, &mut pos, at)?;
                    if code == 0 {
                        break;
                    }
                    lits.push(code_signed(code).ok_or_else(|| {
                        InteropError::input(
                            Some(at),
                            format!("bad binary LRAT literal code {code}"),
                        )
                    })?);
                }
                let mut hints = Vec::new();
                loop {
                    let code = read_varint(bytes, &mut pos, at)?;
                    if code == 0 {
                        break;
                    }
                    hints.push(code_signed(code).ok_or_else(|| {
                        InteropError::input(Some(at), format!("bad binary LRAT hint code {code}"))
                    })?);
                }
                steps.push(LratStep::Add { id, lits, hints });
            }
            0x64 => {
                let mut ids = Vec::new();
                loop {
                    let id = read_varint(bytes, &mut pos, at)?;
                    if id == 0 {
                        break;
                    }
                    ids.push(id);
                }
                steps.push(LratStep::Delete { ids });
            }
            other => {
                return Err(InteropError::input(
                    Some(at),
                    format!("unknown binary LRAT step tag {other:#04x}"),
                ))
            }
        }
    }
    Ok(steps)
}

/// Parses an LRAT proof, sniffing text vs binary by the first byte.
///
/// # Errors
///
/// `Input` errors from the underlying parser; non-UTF-8 bytes on the
/// text path are an input error too.
pub fn parse(bytes: &[u8]) -> Result<Vec<LratStep>, InteropError> {
    if looks_binary(bytes) {
        parse_binary(bytes)
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| InteropError::input(None, format!("LRAT file is not UTF-8: {e}")))?;
        parse_text(text)
    }
}

/// Renders steps in the text encoding. Text deletions need an id of
/// their own; the convention (shared with drat-trim's output) is the id
/// of the most recent addition, which `last_id` tracks.
pub fn write_text<W: Write>(mut out: W, steps: &[LratStep]) -> std::io::Result<()> {
    let mut last_id = 0u64;
    for step in steps {
        match step {
            LratStep::Add { id, lits, hints } => {
                last_id = *id;
                write!(out, "{id}")?;
                for l in lits {
                    write!(out, " {l}")?;
                }
                write!(out, " 0")?;
                for h in hints {
                    write!(out, " {h}")?;
                }
                out.write_all(b" 0\n")?;
            }
            LratStep::Delete { ids } => {
                write!(out, "{last_id} d")?;
                for id in ids {
                    write!(out, " {id}")?;
                }
                out.write_all(b" 0\n")?;
            }
        }
    }
    Ok(())
}

/// Renders steps in the binary encoding.
pub fn write_binary(steps: &[LratStep]) -> Vec<u8> {
    let mut out = Vec::new();
    for step in steps {
        match step {
            LratStep::Add { id, lits, hints } => {
                out.push(0x61);
                write_varint(&mut out, *id);
                for &l in lits {
                    write_varint(&mut out, signed_code(l));
                }
                out.push(0);
                for &h in hints {
                    write_varint(&mut out, signed_code(h));
                }
                out.push(0);
            }
            LratStep::Delete { ids } => {
                out.push(0x64);
                for &id in ids {
                    write_varint(&mut out, id);
                }
                out.push(0);
            }
        }
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
            LratStep::Add {
                id: 5,
                lits: vec![1, -2],
                hints: vec![3, 1, -4, 2],
            },
            LratStep::Delete { ids: vec![1, 3] },
            LratStep::Add {
                id: 6,
                lits: vec![],
                hints: vec![5, 2],
            },
        ];
        let mut buf = Vec::new();
        write_text(&mut buf, &steps).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&buf),
            "5 1 -2 0 3 1 -4 2 0\n5 d 1 3 0\n6 0 5 2 0\n"
        );
        assert_eq!(parse(&buf).unwrap(), steps);
    }

    #[test]
    fn binary_roundtrip() {
        let steps = vec![
            LratStep::Add {
                id: 300,
                lits: vec![64, -65],
                hints: vec![-12, 299],
            },
            LratStep::Delete { ids: vec![299] },
        ];
        let bytes = write_binary(&steps);
        assert!(looks_binary(&bytes));
        assert_eq!(parse(&bytes).unwrap(), steps);
    }

    #[test]
    fn rejections_are_input_errors() {
        for bad in [
            "x 1 0 1 0",   // bad id
            "0 1 0 1 0",   // id zero
            "3 1 0",       // one terminator only
            "3 1 0 2 0 9", // trailing token
            "3 d 1",       // unterminated deletion
            "3 d 1 0 4",   // trailing deletion token
        ] {
            let err = parse_text(bad).unwrap_err();
            assert_eq!(err.kind, InteropErrorKind::Input, "{bad:?}");
        }
        for bad in [
            &[0x62u8][..],           // unknown tag
            &[0x61, 0x00][..],       // id zero
            &[0x61, 0x05][..],       // truncated after id
            &[0x61, 0x05, 0x02][..], // truncated literal list
        ] {
            let err = parse_binary(bad).unwrap_err();
            assert_eq!(err.kind, InteropErrorKind::Input, "{bad:?}");
        }
    }
}
