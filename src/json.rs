//! The `halo` binary's one JSON writer: values are rendered as they are
//! built — compact (no whitespace), object keys in the order they were
//! given, floats at a precision the caller fixes.

use std::fmt;

/// A rendered JSON value; `{}` prints it.
pub struct Json(String);

/// Integers and `bool`s print in JSON as they do in Rust.
macro_rules! json_from {
    ($($plain:ty),*) => {$(
        impl From<$plain> for Json {
            fn from(v: $plain) -> Json {
                Json(v.to_string())
            }
        }
    )*};
}
json_from!(bool, u64, usize);

impl Json {
    pub fn null() -> Json {
        Json("null".to_string())
    }

    /// `x` with exactly `decimals` decimals.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json(format!("{x:.decimals$}"))
    }

    /// The text of `s` as a JSON string.
    pub fn str(s: impl fmt::Display) -> Json {
        let mut out = String::from('"');
        for c in s.to_string().chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        Json(out + "\"")
    }

    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        let items: Vec<String> = items.into_iter().map(|item| item.0).collect();
        Json(format!("[{}]", items.join(",")))
    }

    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let fields: Vec<String> =
            fields.into_iter().map(|(key, value)| format!("{}:{value}", Json::str(key))).collect();
        Json(format!("{{{}}}", fields.join(",")))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_bytes() {
        assert_eq!(Json::str("povray").to_string(), r#""povray""#);
        assert_eq!(Json::str(r#"a"b\c"#).to_string(), r#""a\"b\\c""#);
        let control = Json::str("tab\there\n\u{1}").to_string();
        assert_eq!(control, r#""tab\u0009here\u000a\u0001""#);
        assert_eq!(Json::str("é█").to_string(), "\"é█\"", "non-ASCII passes through");
        let keyed = Json::object([("a\"b", Json::null())]);
        assert_eq!(keyed.to_string(), r#"{"a\"b":null}"#, "keys are escaped too");
    }

    #[test]
    fn floats_print_at_the_precision_asked_for() {
        assert_eq!(Json::fixed(0.22649, 4).to_string(), "0.2265");
        assert_eq!(Json::fixed(-0.00004, 4).to_string(), "-0.0000");
        assert_eq!(Json::fixed(2_803_456.5, 0).to_string(), "2803456");
        assert_eq!(Json::fixed(3.25, 1).to_string(), "3.2");
        assert_eq!(Json::fixed(12.3456, 3).to_string(), "12.346");
    }

    #[test]
    fn scalars_and_null() {
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(7usize).to_string(), "7");
        // What a `None` lowers to (`drift` on a window that did not re-group).
        assert_eq!(None.map_or(Json::null(), |d| Json::fixed(d, 4)).to_string(), "null");
    }

    #[test]
    fn nesting_is_compact_and_keeps_key_order() {
        let doc = Json::object([
            ("z", Json::from(1u64)),
            ("a", Json::array([Json::object([("k", Json::str("v"))]), Json::array([])])),
            ("empty", Json::object([])),
        ]);
        assert_eq!(doc.to_string(), r#"{"z":1,"a":[{"k":"v"},[]],"empty":{}}"#);
    }
}
