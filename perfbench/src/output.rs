//! The result line: named metrics with units, rendered as one JSON object.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric name starts with a letter or digit and is at most 64 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders the final result line:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let problem = if !valid_name(m.name) {
            "has an invalid name"
        } else if !valid_unit(m.unit) {
            "has an invalid unit"
        } else if metrics[..i].iter().any(|p| p.name == m.name) {
            "is reported twice"
        } else if !m.value.is_finite() {
            "is not a finite number"
        } else {
            ""
        };
        if !problem.is_empty() {
            return Err(format!("metric {:?} {problem}", m.name));
        }
        if i > 0 {
            body.push_str(", ");
        }
        // `{}` on f64 prints the shortest string that round-trips: every
        // measured digit survives.
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_benchmark_alphabet() {
        for ok in [
            "join_s",
            "mapreduce.tsj.token_stats.wall_s",
            "pool.steals",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "join s", "join/s", "naïve", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("ms") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn renders_the_result_object() {
        let line = result_json(
            true,
            7,
            0,
            &[
                Metric {
                    name: "join_s",
                    value: 1.25,
                    unit: "s",
                },
                Metric {
                    name: "peak_rss_mb",
                    value: 3.0,
                    unit: "MB",
                },
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"join_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 3, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn rejects_bad_names_duplicates_and_non_finite_values() {
        let m = |name, value| Metric {
            name,
            value,
            unit: "s",
        };
        let err = |metrics: &[Metric]| result_json(true, 1, 0, metrics).unwrap_err();
        assert!(err(&[m("bad name", 1.0)]).contains("invalid name"));
        assert!(err(&[m("a", 1.0), m("a", 2.0)]).contains("twice"));
        assert!(err(&[m("a", f64::NAN)]).contains("finite"));
        let bad_unit = Metric {
            unit: "m s",
            ..m("a", 1.0)
        };
        assert!(err(&[bad_unit]).contains("invalid unit"));
    }
}
