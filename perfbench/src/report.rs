//! Named metrics with units, the human-readable table and the final
//! JSON line.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-text context printed next to the value (sample counts).
    pub note: String,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.add_note(name, value, unit, String::new());
    }

    pub fn add_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for m in &self.0 {
            println!(
                "  {:<34} {:>16.6} {:<8} {}",
                m.name, m.value, m.unit, m.note
            );
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest exact round-trip form of an f64.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut m = Metrics::default();
        m.add("latency_ms", 1.25, "ms");
        m.add("bad", f64::NAN, "s");
        let refs: Vec<&Metric> = m.0.iter().collect();
        assert_eq!(
            result_line(true, 10, 0, &refs),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
