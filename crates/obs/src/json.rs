//! The workspace's one JSON module. Every versioned document
//! (`tn-report/v1`, `tn-exp/v1`, `tn-lab/v1`, `tn-lab-spec/v1`,
//! `tn-trace/v1`, `tn-flight/v1`, `tn-audit/v1`) is built as a [`Json`]
//! tree, written by [`Json::render`] and read back by [`parse`].
//!
//! The workspace has no serde (vendored deps only). Object members keep
//! their order (no map), so there is no iteration-order hazard and a
//! document re-renders exactly as it was built. Numbers are kept as their
//! raw tokens: each writer chooses its own format (`{:.6}` ratios,
//! shortest round-trip `f64`s, integers of any width), each reader decides
//! which range it accepts, and parse → render is a byte identity on every
//! compact document. Strings follow one escape rule, the private `quote`'s.

/// A JSON value. Object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (round-trip exact).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Number as `f64`, if this is a number token.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Number as `u64`, if this is a non-negative integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact JSON: no whitespace anywhere.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, false);
        out
    }

    /// JSON with every array that is not inside another array laid out
    /// one item per line (`[`, newline, items joined by `,` and newline,
    /// newline, `]`); the items themselves are compact. This is the
    /// `tn-flight/v1` layout, one trace event per line.
    pub fn render_listed(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, true);
        out
    }

    fn render_into(&self, out: &mut String, listed: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => quote(out, s),
            Json::Arr(items) => {
                out.push('[');
                if listed {
                    out.push('\n');
                }
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if listed { ",\n" } else { "," });
                    }
                    v.render_into(out, false);
                }
                if listed && !items.is_empty() {
                    out.push('\n');
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    quote(out, k);
                    out.push(':');
                    v.render_into(out, listed);
                }
                out.push('}');
            }
        }
    }
}

/// Write `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// newline, carriage return and tab as `\n` `\r` `\t`, every other
/// control character as `\u00XX`, everything else verbatim.
fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[(c as usize) >> 4]));
                out.push(char::from(HEX[(c as usize) & 0xf]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A number token for an `f64`. Rust's `Display` prints the shortest
/// representation that round-trips, so `num_f64(v).as_f64()` returns
/// exactly `v`. Panics on non-finite input (callers validate first).
pub fn num_f64(v: f64) -> Json {
    assert!(v.is_finite(), "JSON cannot carry non-finite numbers");
    Json::Num(format!("{v}"))
}

/// A number token for an `f64` with exactly `decimals` fractional digits,
/// or `null` when `v` is not finite (JSON has no NaN or infinity).
pub fn num_fixed(v: f64, decimals: usize) -> Json {
    if v.is_finite() {
        Json::Num(format!("{v:.decimals$}"))
    } else {
        Json::Null
    }
}

/// A number token for a `u64`.
pub fn num_u64(v: u64) -> Json {
    Json::Num(v.to_string())
}

/// Parse a complete JSON document (surrounding whitespace allowed,
/// trailing characters rejected).
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

/// A number in JSON's grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
/// ([eE] [+-]? [0-9]+)?`, kept as its raw token.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_len = digits(pos);
    let mut ok = int_len == 1 || (int_len > 1 && bytes[int_start] != b'0');
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok &= digits(pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok &= digits(pos) > 0;
    }
    // Only ASCII was consumed, so the token is valid UTF-8.
    let tok = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if !ok {
        return Err(format!("bad number `{tok}` at byte {start}"));
    }
    Ok(Json::Num(tok.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!(
                    "unescaped control character at byte {pos}",
                    pos = *pos
                ))
            }
            Some(_) => {
                // A run of plain text up to the next quote, backslash or
                // control character: all ASCII, so the run ends on a
                // character boundary and multi-byte sequences stay whole.
                let run = *pos;
                while matches!(bytes.get(*pos), Some(&b) if b >= 0x20 && b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[run..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            r#" {"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\u0041", "d": null, "f": {}}, "e": true} "#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        let b = v.get("b").unwrap();
        assert_eq!(b.get("c").unwrap().as_str(), Some("x\n\"yA"));
        assert_eq!(b.get("d"), Some(&Json::Null));
        assert_eq!(b.get("f"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn render_parse_is_byte_identity() {
        let v = Json::obj([
            ("s", Json::Str("a\\b\n\"é\u{1}\u{1f}".into())),
            ("n", num_f64(0.1)),
            ("x", num_fixed(0.5, 6)),
            ("i", num_u64(u64::MAX)),
            ("l", Json::Arr(vec![Json::Bool(false), Json::Null])),
        ]);
        let rendered = v.render();
        assert_eq!(
            rendered,
            r#"{"s":"a\\b\n\"é\u0001\u001f","n":0.1,"x":0.500000,"i":18446744073709551615,"l":[false,null]}"#
        );
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn escape_rule_covers_every_control_character() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let rendered = Json::Str(c.to_string()).render();
            let want = match c {
                '\n' => "\"\\n\"".to_string(),
                '\r' => "\"\\r\"".to_string(),
                '\t' => "\"\\t\"".to_string(),
                _ => format!("\"\\u{code:04x}\""),
            };
            assert_eq!(rendered, want);
            assert_eq!(parse(&rendered).unwrap(), Json::Str(c.to_string()));
        }
    }

    #[test]
    fn listed_layout_puts_outer_array_items_on_their_own_lines() {
        let v = Json::obj([
            ("schema", Json::Str("x".into())),
            (
                "events",
                Json::Arr(vec![
                    Json::obj([("a", Json::Arr(vec![num_u64(1), num_u64(2)]))]),
                    Json::Null,
                ]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        let listed = v.render_listed();
        assert_eq!(
            listed,
            "{\"schema\":\"x\",\"events\":[\n{\"a\":[1,2]},\nnull\n],\"empty\":[\n]}"
        );
        assert_eq!(parse(&listed).unwrap(), v);
        assert_eq!(parse(&listed).unwrap().render_listed(), listed);
    }

    #[test]
    fn fixed_tokens_keep_their_digits_and_non_finite_is_null() {
        assert_eq!(num_fixed(1234.5, 6), Json::Num("1234.500000".into()));
        assert_eq!(num_fixed(2.0 / 3.0, 1), Json::Num("0.7".into()));
        assert_eq!(num_fixed(f64::NAN, 6), Json::Null);
        assert_eq!(num_fixed(f64::INFINITY, 1), Json::Null);
    }

    #[test]
    fn f64_tokens_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.0, 200.0, f64::MIN_POSITIVE, 1e300] {
            assert_eq!(num_f64(v).as_f64(), Some(v), "{v}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{",
            "[1,]",
            "12 34",
            "\"unterminated",
            "nope",
            "{\"a\":1}x",
            "\"raw\ncontrol\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(parse("[1] x").unwrap_err().contains("trailing characters"));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for good in [
            "0", "-0", "7", "-12", "1.5", "0.25", "1e3", "1E+3", "2.5e-7",
        ] {
            assert_eq!(parse(good), Ok(Json::Num(good.into())), "{good}");
        }
        for bad in [
            "01", "-", "1.", ".5", "+5", "1e", "1e+", "--1", "0x10", "1.2.3",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }
}
