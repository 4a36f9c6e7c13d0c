//! Integer tokens for the DRAT and LRAT text parsers.
//!
//! The parsers split each line at ASCII whitespace and read every token
//! straight from its bytes. The accepted forms are exactly those of
//! `str::parse` — an optional sign (`+`, and `-` for signed values),
//! then one or more ASCII digits, in range — so the parsers accept the
//! language they did with `str::parse`, and a rejected token is still
//! quoted as the `&str` it is.

/// `tok.parse::<i64>()`.
pub(crate) fn parse_i64(tok: &str) -> Option<i64> {
    match tok.as_bytes() {
        [b'-', digits @ ..] => {
            let magnitude = parse_digits(digits)?;
            (magnitude <= i64::MIN.unsigned_abs()).then(|| 0i64.wrapping_sub_unsigned(magnitude))
        }
        [b'+', digits @ ..] | digits => i64::try_from(parse_digits(digits)?).ok(),
    }
}

/// `tok.parse::<u64>()`.
pub(crate) fn parse_u64(tok: &str) -> Option<u64> {
    match tok.as_bytes() {
        [b'+', digits @ ..] | digits => parse_digits(digits),
    }
}

/// One or more ASCII digits as a `u64`; `None` on any other byte or on
/// overflow, which only a token of 20 or more digits can reach.
fn parse_digits(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    let mut value = 0u64;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = if digits.len() < 20 {
            value * 10 + u64::from(digit)
        } else {
            value.checked_mul(10)?.checked_add(u64::from(digit))?
        };
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_read_like_str_parse() {
        let max = u64::MAX.to_string();
        let mut cases = vec![
            "",
            "0",
            "-0",
            "+0",
            "7",
            "+7",
            "-7",
            "007",
            "-007",
            "+",
            "-",
            "+-1",
            "-+1",
            "--1",
            "++1",
            "1-",
            "1+",
            "x",
            "1x",
            "é",
            "٣",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "9999999999999999999",
            "09999999999999999999",
            "99999999999999999999",
            "18446744073709551616",
            "-18446744073709551615",
            "000000000000000000000000000042",
        ];
        cases.push(&max);
        for tok in cases {
            assert_eq!(parse_i64(tok), tok.parse::<i64>().ok(), "i64 {tok:?}");
            assert_eq!(parse_u64(tok), tok.parse::<u64>().ok(), "u64 {tok:?}");
        }
    }
}
