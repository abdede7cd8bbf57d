//! A typed JSON value and its one writer, for the `BENCH_*.json` reports
//! `repro perf` emits. A report built as one [`Json`] tree is well formed
//! by construction; the one malformed case a tree can still hold is a
//! non-finite float, which [`write`] rejects.

/// One JSON value. Objects keep their members in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer, printed without a decimal point.
    Int(u64),
    /// A float printed with this many decimals.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(&'static str, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<Option<u64>> for Json {
    fn from(n: Option<u64>) -> Self {
        n.map_or(Json::Null, Json::Int)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// `obj! {"key" => value, ...}`: a [`Json::Obj`] whose values convert
/// with `Json::from`.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key, $crate::json::Json::from($value))),*])
    };
}
pub(crate) use obj;

/// Print `doc` as a JSON document ending in a newline. The top-level
/// object and any array of objects put one item on each line; everything
/// else stays inline. Fails on a NaN or infinite float, naming the keys
/// that lead to it.
pub(crate) fn write(doc: &Json) -> Result<String, String> {
    let mut out = String::new();
    value(&mut out, doc, 0, true)?;
    out.push('\n');
    Ok(out)
}

/// Write `v`; `indent` is the indentation of the line it starts on.
fn value(out: &mut String, v: &Json, indent: usize, top: bool) -> Result<(), String> {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Fixed(x, _) if !x.is_finite() => return Err(format!("non-finite number {x}")),
        Json::Fixed(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
        Json::Str(s) => string(out, s),
        Json::Arr(items) => {
            let multiline = items.iter().any(|i| matches!(i, Json::Obj(_)));
            seq(
                out,
                "[]",
                items.iter().enumerate(),
                multiline,
                indent,
                |out, (i, item), ind| {
                    value(out, item, ind, false).map_err(|e| format!("[{i}]: {e}"))
                },
            )?;
        }
        Json::Obj(members) => seq(
            out,
            "{}",
            members.iter(),
            top,
            indent,
            |out, (k, v), ind| {
                string(out, k);
                out.push_str(": ");
                value(out, v, ind, false).map_err(|e| format!("{k}: {e}"))
            },
        )?,
    }
    Ok(())
}

/// Write `items` with `each` between the two `brackets`: inline with ", "
/// separators, or one per line indented two past `indent`.
fn seq<T>(
    out: &mut String,
    brackets: &str,
    items: impl Iterator<Item = T>,
    multiline: bool,
    indent: usize,
    mut each: impl FnMut(&mut String, T, usize) -> Result<(), String>,
) -> Result<(), String> {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let mut empty = true;
    for item in items {
        if !empty {
            out.push_str(if multiline { "," } else { ", " });
        }
        if multiline {
            out.push('\n');
            out.push_str(&" ".repeat(indent + 2));
        }
        each(out, item, if multiline { indent + 2 } else { indent })?;
        empty = false;
    }
    if multiline && !empty {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push_str(close);
    Ok(())
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = obj! {"k\"ey" => "a\"b\\c\nd\te\u{1}é"};
        let want = "{\n  \"k\\\"ey\": \"a\\\"b\\\\c\\nd\\te\\u0001é\"\n}\n";
        assert_eq!(write(&doc).unwrap(), want);
    }

    #[test]
    fn non_finite_floats_are_rejected_with_their_path() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = obj! {"sim" => obj! {"tps" => Json::Fixed(bad, 2)}};
            let err = write(&doc).unwrap_err();
            assert!(err.starts_with("sim: tps: non-finite"), "got: {err}");
            let arr = Json::Arr(vec![Json::Fixed(1.0, 1), Json::Fixed(bad, 1)]);
            assert!(write(&arr).unwrap_err().starts_with("[1]: non-finite"));
        }
    }

    #[test]
    fn integers_print_bare_and_floats_keep_their_decimals() {
        let doc = obj! {
            "int" => 1_522_294u64, "tps" => Json::Fixed(68.5, 2), "secs" => Json::Fixed(0.0049, 3),
            "ev" => Json::Fixed(1_522_294.4, 0), "p50" => None::<u64>, "quick" => true,
            "points" => Json::Arr(vec![obj! {"n" => 1u64}, obj! {"n" => 2u64}]),
            "empty" => Json::Arr(vec![]),
        };
        let want = "{\n  \"int\": 1522294,\n  \"tps\": 68.50,\n  \"secs\": 0.005,\n  \
                    \"ev\": 1522294,\n  \"p50\": null,\n  \"quick\": true,\n  \"points\": [\n    \
                    {\"n\": 1},\n    {\"n\": 2}\n  ],\n  \"empty\": []\n}\n";
        assert_eq!(write(&doc).unwrap(), want);
    }
}
