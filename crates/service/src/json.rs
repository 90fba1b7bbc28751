//! A minimal, dependency-free JSON reader for campaign requests. (The
//! service writes its replies through `pckpt_core::obs::json`, whose
//! [`escape`] is re-exported here.)
//!
//! The build environment has no registry access, so the request format
//! is parsed by a small recursive-descent reader instead of `serde`.
//! It accepts the JSON the service documents (objects, arrays, strings,
//! numbers, booleans, null; `\uXXXX` escapes limited to the BMP) and
//! keeps object members in document order, so parsing is deterministic.
//! Nesting is capped at `MAX_DEPTH`, so the reader's recursion is
//! bounded whatever a client sends.

/// Deepest array/object nesting a document may have. Campaign requests
/// nest 2 deep; without a cap, one line of `[[[[…` recurses once per
/// bracket and overflows the stack of the thread parsing it.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON numbers are doubles here).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Exact integrality check on a parsed literal, not a
            // computed float. simlint: allow(no-float-eq)
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
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
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next quote or
                // backslash in one piece. Both are ASCII, so the run of a
                // valid UTF-8 request (it arrives as &str) ends on a char
                // boundary.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                let s = std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?;
                out.push_str(s);
                *pos += run;
            }
        }
    }
}

/// The depth inside one more array/object, or an error past `MAX_DEPTH`.
fn nest(depth: usize, pos: usize) -> Result<usize, String> {
    if depth < MAX_DEPTH {
        Ok(depth + 1)
    } else {
        Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    let depth = nest(depth, *pos)?;
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    let depth = nest(depth, *pos)?;
    expect(bytes, pos, b'{')?;
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
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// The report writer's string escape, kept at this path for callers
/// that write JSON by hand.
pub use pckpt_core::obs::json::escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shaped_documents() {
        let doc = r#"{"name":"fig4","apps":["XGC","POP"],"scales":[1.5,0.5],
                      "runs":6,"seed":61,"vr":"antithetic","deep":{"ok":true},
                      "neg":-1.5e2,"null":null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("fig4"));
        assert_eq!(v.get("runs").and_then(Json::as_u64), Some(6));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-150.0));
        assert_eq!(v.get("deep").and_then(|d| d.get("ok")).and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("null"), Some(&Json::Null));
        let apps = v.get("apps").and_then(Json::as_arr).unwrap();
        assert_eq!(apps.len(), 2);
        assert_eq!(v.get("scales").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    }

    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        // 1 MiB of ASCII, two-, three- and four-byte characters and
        // escapes round-trips exactly. Each plain run is copied in one
        // piece; decoding a char by validating the whole rest of the
        // input made this quadratic (tens of seconds in release).
        let pieces = ["plain ascii ", "é", "中文", "🦀", "\"", "\\", "\n", "x"];
        let mut name = String::new();
        for piece in pieces.iter().cycle() {
            if name.len() >= 1 << 20 {
                break;
            }
            name.push_str(piece);
        }
        let doc = format!("{{\"name\":\"{}\"}}", escape(&name));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(parse(&doc)));
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("parsing a 1 MiB string took over a second")
            .unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some(name.as_str()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1}x", "\"\\q\"", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        // An uncapped reader overflows a 2 MiB thread stack long before
        // 100,000 brackets; capped, it returns an error.
        for deep in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1), "[".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse("\"a\\n\\t\\u0041\\\\\"").unwrap();
        assert_eq!(v.as_str(), Some("a\n\tA\\"));
        assert_eq!(escape("a\n\"b\\"), "a\\n\\\"b\\\\");
    }
}
