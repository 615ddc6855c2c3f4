//! A minimal, dependency-free JSON syntax validator.
//!
//! The workspace's vendored `serde` is a deterministic stub (no real
//! serialization), so the telemetry writers emit NDJSON by hand. This
//! module is the matching safety net: a recursive-descent checker the
//! schema tests (and the CI telemetry smoke job) run over every emitted
//! file to guarantee the hand-written output is well-formed JSON with
//! the expected envelope keys.

/// Validates NDJSON text: every non-empty line must be one well-formed
/// JSON object. Returns the number of object lines.
pub fn validate_ndjson(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let keys = parse_object_keys(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if keys.is_empty() {
            return Err(format!("line {}: empty object", i + 1));
        }
        n += 1;
    }
    Ok(n)
}

/// Validates a trace NDJSON file: well-formed objects that all carry the
/// `t_us`/`shard`/`seq`/`kind` envelope keys. Returns the event count.
pub fn validate_trace_ndjson(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let keys = parse_object_keys(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        for required in ["t_us", "shard", "seq", "kind"] {
            if !keys.iter().any(|k| k == required) {
                return Err(format!("line {}: missing envelope key {required:?}", i + 1));
            }
        }
        n += 1;
    }
    Ok(n)
}

/// Parses one JSON object and returns its top-level keys in order.
pub fn parse_object_keys(s: &str) -> Result<Vec<String>, String> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let keys = p.object()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(keys)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    /// `{ "key": value, ... }` — returns the keys.
    fn object(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'{')?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(keys);
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.object()?;
                Ok(())
            }
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at offset {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => {
                                        return Err(format!(
                                            "bad \\u escape at offset {}",
                                            self.pos
                                        ))
                                    }
                                }
                            }
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                Some(c) if c >= 0x20 => {
                    // Multi-byte UTF-8 sequences pass through byte-wise;
                    // only the key spelling matters to callers and keys
                    // here are ASCII.
                    out.push(c as char);
                    self.pos += 1;
                }
                _ => return Err(format!("unterminated string at offset {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("bad number at offset {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad fraction at offset {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad exponent at offset {start}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_objects() {
        let text = "{\"a\":1,\"b\":[1,2.5,-3e4],\"c\":{\"d\":null},\"e\":\"x\"}\n\n{\"f\":true}\n";
        assert_eq!(validate_ndjson(text), Ok(2));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate_ndjson("{\"a\":}").is_err());
        assert!(validate_ndjson("{\"a\":1").is_err());
        assert!(validate_ndjson("{\"a\":1} extra").is_err());
        assert!(validate_ndjson("[1,2]").is_err());
        assert!(validate_ndjson("{\"a\":01e}").is_err());
    }

    #[test]
    fn trace_validation_requires_envelope_keys() {
        let good = "{\"t_us\":1.5,\"shard\":0,\"seq\":0,\"kind\":\"spo\",\"phase\":\"cut\",\"detail\":3}\n";
        assert_eq!(validate_trace_ndjson(good), Ok(1));
        let bad = "{\"t_us\":1.5,\"shard\":0,\"kind\":\"spo\"}\n";
        assert!(validate_trace_ndjson(bad).unwrap_err().contains("seq"));
    }
}
