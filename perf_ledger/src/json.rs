//! Just enough JSON emission for the result line, the report and the
//! span file: values are pre-rendered strings, objects keep field order.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number. Rust prints an `f64` with the fewest digits that read
/// back to the same value and never in exponent form, which is valid
/// JSON; a non-finite value has no JSON form and is a caller bug.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite value has no JSON form");
    v.to_string()
}

/// A JSON object from already-rendered values.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let inner = object(&[("value", number(1.25)), ("unit", string("ms"))]);
        let outer = object(&[("ok", "true".to_string()), ("m", inner)]);
        assert_eq!(outer, r#"{"ok": true, "m": {"value": 1.25, "unit": "ms"}}"#);
        assert_eq!(array(&[number(1.0), number(0.5)]), "[1, 0.5]");
    }

    #[test]
    fn escapes_strings_and_keeps_numbers_plain() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(number(2.5e10), "25000000000");
    }
}
