//! Small measurement helpers: order statistics, process counters read
//! from `/proc`, the host descriptor and JSON building.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde_json::Value;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; `0.0` for an empty sample. The
/// values are summed in sorted order, so the result does not depend on
/// the order they were gathered in, to the last bit.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted.iter().map(|v| v.ln()).sum::<f64>() / sorted.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// `numerator / denominator`, `0.0` when nothing was attempted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU utilisation of a phase: CPU time over wall time times threads.
pub fn cpu_util(cpu: Duration, wall: Duration, threads: usize) -> f64 {
    ratio(cpu.as_secs_f64(), wall.as_secs_f64() * threads as f64)
}

/// The git revision of the checkout, read from `.git` without running
/// git; `unknown` outside a repository.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn put(mut self, key: &str, value: impl Into<JsonValue>) -> Obj {
        self.0.push((key.to_owned(), value.into().0));
        self
    }

    pub fn value(self) -> Value {
        Value::Object(self.0)
    }
}

/// Prints a JSON value tree, compact or indented.
pub fn to_json(value: Value, pretty: bool) -> String {
    struct Tree(Value);
    impl serde::Serialize for Tree {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    let tree = Tree(value);
    let text = if pretty {
        serde_json::to_string_pretty(&tree)
    } else {
        serde_json::to_string(&tree)
    };
    text.expect("printing a value tree is infallible")
}

/// Conversion shim into the vendored JSON value tree.
pub struct JsonValue(pub Value);

impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue(Value::Float(v))
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> JsonValue {
        JsonValue(Value::Int(i128::from(v)))
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue(Value::Int(v as i128))
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue(Value::Bool(v))
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue(Value::Str(v.to_owned()))
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue(Value::Str(v))
    }
}

impl From<Value> for JsonValue {
    fn from(v: Value) -> JsonValue {
        JsonValue(v)
    }
}

/// One measured metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

pub fn metrics_json(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    Obj::new().put("value", m.value).put("unit", m.unit).value(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn geomean_of_powers_of_two() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
