//! The result line: one JSON object, written by hand (the workspace has no
//! serialization dependency).

use crate::stats::Ops;

/// Formats a finite number with all its digits; JSON has no NaN or
/// infinity, so those print as 0 (a metric that cannot be computed).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Escapes a string for JSON (metric names and units are plain ASCII).
fn string(s: &str) -> String {
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

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
pub fn result_line(correct: bool, ops: Ops, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                number(*v),
                string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            Ops {
                attempted: 10,
                failed: 1,
            },
            &[
                ("setup_s".to_owned(), 0.8125, "s"),
                ("x\"y".to_owned(), f64::NAN, "ms"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}, \"x\\\"y\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
