//! Point-in-time metric snapshots with text and JSON export.
//!
//! The JSON format is the stable interchange form that `BENCH_*.json`
//! trajectories carry from this PR onward:
//!
//! ```json
//! {
//!   "registry": "node-0",
//!   "metrics": [
//!     {"name": "smr.node.decided", "type": "counter", "value": 42},
//!     {"name": "core.signing.queue_depth", "type": "gauge", "value": -1},
//!     {"name": "consensus.replica.write_phase_ms", "type": "histogram",
//!      "count": 3, "sum": 9, "min": 1, "max": 5,
//!      "buckets": [[1, 1, 2], [5, 5, 1]]}
//!   ]
//! }
//! ```
//!
//! Buckets are `[lower, upper, count]` triples, non-empty buckets
//! only, ascending by `lower`. The hand-rolled writer/parser keeps the
//! crate zero-dependency (the workspace deliberately has no serde_json).

/// Snapshot of a [`crate::Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// `(lower, upper, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`,
    /// clamped to the recorded `max`. Returns 0 for an empty
    /// histogram. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(_, upper, count) in &self.buckets {
            seen += count;
            if seen >= target {
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds `other`'s observations into `self` (bucket-wise merge, as
    /// when aggregating the same metric across replicas).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        // Wrapping, like `Histogram::record`'s `fetch_add`: merged
        // totals equal those of one histogram fed every value.
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: Vec<(u64, u64, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        while let (Some(&&(la, ua, ca)), Some(&&(lb, ub, cb))) = (a.peek(), b.peek()) {
            match la.cmp(&lb) {
                std::cmp::Ordering::Less => {
                    merged.push((la, ua, ca));
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push((lb, ub, cb));
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push((la, ua, ca + cb));
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
    }
}

/// Value of one exported metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Up/down gauge.
    Gauge(i64),
    /// Latency/size distribution.
    Histogram(HistogramSnapshot),
}

/// One named metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Dotted name, `crate.subsystem.metric`.
    pub name: String,
    /// The captured value.
    pub value: MetricValue,
}

/// Point-in-time copy of one [`crate::Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Registry name (e.g. `node-0`).
    pub registry: String,
    /// Metrics sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// The metric with this exact name, if present.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Counter value by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metric(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.metric(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metric(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Folds `other` into `self`: counters and gauges add, histograms
    /// bucket-merge, metrics unique to `other` are appended. Used to
    /// aggregate the same metric set across replicas.
    pub fn merge(&mut self, other: &Snapshot) {
        for m in &other.metrics {
            match self.metrics.iter_mut().find(|mine| mine.name == m.name) {
                Some(mine) => match (&mut mine.value, &m.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    // Type mismatch across snapshots: keep ours.
                    _ => {}
                },
                None => self.metrics.push(m.clone()),
            }
        }
        self.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Stable JSON form (see module docs for the schema).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"registry\":");
        json_string(out, &self.registry);
        out.push_str(",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(out, &m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.min, h.max
                    ));
                    for (j, &(lo, hi, c)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{lo},{hi},{c}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
    }

    /// Parses the JSON form produced by [`Snapshot::to_json`].
    pub fn from_json(json: &str) -> Result<Snapshot, String> {
        let value = json::parse(json)?;
        snapshot_from_value(&value)
    }
}

#[expect(clippy::indexing_slicing, reason = "`triple[i]` with `i ∈ 0..3` follows the `len() != 3` rejection")]
fn snapshot_from_value(value: &json::Value) -> Result<Snapshot, String> {
    let registry = value
        .get("registry")
        .and_then(|v| v.as_str())
        .ok_or("missing \"registry\" string")?
        .to_string();
    let raw_metrics = value
        .get("metrics")
        .and_then(|v| v.as_array())
        .ok_or("missing \"metrics\" array")?;
    let mut metrics = Vec::with_capacity(raw_metrics.len());
    for m in raw_metrics {
        let name = m
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("metric missing \"name\"")?
            .to_string();
        let kind = m
            .get("type")
            .and_then(|v| v.as_str())
            .ok_or("metric missing \"type\"")?;
        let value = match kind {
            "counter" => MetricValue::Counter(
                m.get("value")
                    .and_then(|v| v.as_u64())
                    .ok_or("counter missing \"value\"")?,
            ),
            "gauge" => MetricValue::Gauge(
                m.get("value")
                    .and_then(|v| v.as_i64())
                    .ok_or("gauge missing \"value\"")?,
            ),
            "histogram" => {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_u64())
                        .ok_or_else(|| format!("histogram missing \"{k}\""))
                };
                let raw_buckets = m
                    .get("buckets")
                    .and_then(|v| v.as_array())
                    .ok_or("histogram missing \"buckets\"")?;
                let mut buckets = Vec::with_capacity(raw_buckets.len());
                for b in raw_buckets {
                    let triple = b.as_array().ok_or("bucket is not an array")?;
                    if triple.len() != 3 {
                        return Err("bucket is not a [lower, upper, count] triple".into());
                    }
                    let n = |i: usize| {
                        triple[i]
                            .as_u64()
                            .ok_or("bucket entry is not an unsigned integer")
                    };
                    buckets.push((n(0)?, n(1)?, n(2)?));
                }
                MetricValue::Histogram(HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    buckets,
                })
            }
            other => return Err(format!("unknown metric type {other:?}")),
        };
        metrics.push(MetricSnapshot { name, value });
    }
    Ok(Snapshot { registry, metrics })
}

pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A minimal recursive-descent JSON parser — just enough to read the
/// snapshot schema back (objects, arrays, strings, integers, bools,
/// null). Numbers are kept as `i128` so the full `u64` and `i64`
/// ranges round-trip exactly.
pub(crate) mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Value {
        Null,
        Bool(bool),
        Int(i128),
        Str(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub(crate) fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => {
                    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                _ => None,
            }
        }

        pub(crate) fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub(crate) fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(v) => Some(v),
                _ => None,
            }
        }

        pub(crate) fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(n) => u64::try_from(*n).ok(),
                _ => None,
            }
        }

        pub(crate) fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Int(n) => i64::try_from(*n).ok(),
                _ => None,
            }
        }
    }

    pub(crate) fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    #[expect(clippy::indexing_slicing, reason = "every index is preceded by an explicit bounds check in this hand-rolled parser")]
    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    #[expect(clippy::indexing_slicing, reason = "every index is preceded by an explicit bounds check in this hand-rolled parser")]
    fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == want {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
        }
    }

    #[expect(clippy::indexing_slicing, reason = "`*pos < bytes.len()` is established by the caller's dispatch on `bytes.get(*pos)`")]
    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            fields.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    #[expect(clippy::indexing_slicing, reason = "every index is preceded by an explicit bounds check in this hand-rolled parser")]
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
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("non-scalar \\u escape")?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let start = *pos;
                    *pos += 1;
                    while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                        *pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&bytes[start..*pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    #[expect(clippy::unwrap_used, clippy::indexing_slicing, reason = "loop indices are bounds-checked; the digit span is ASCII so the UTF-8 view cannot fail")]
    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == start || (*pos == start + 1 && bytes[start] == b'-') {
            return Err(format!("invalid number at byte {start}"));
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
        text.parse::<i128>()
            .map(Value::Int)
            .map_err(|_| format!("number out of range at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            registry: "node-0".into(),
            metrics: vec![
                MetricSnapshot {
                    name: "consensus.replica.write_phase_ms".into(),
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        sum: 9,
                        min: 1,
                        max: 5,
                        buckets: vec![(1, 1, 2), (5, 5, 1)],
                    }),
                },
                MetricSnapshot {
                    name: "core.signing.queue_depth".into(),
                    value: MetricValue::Gauge(-2),
                },
                MetricSnapshot {
                    name: "smr.node.decided".into(),
                    value: MetricValue::Counter(42),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let snap = sample();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_round_trips_extreme_values() {
        let snap = Snapshot {
            registry: "edge \"case\"\n".into(),
            metrics: vec![
                MetricSnapshot {
                    name: "max.counter".into(),
                    value: MetricValue::Counter(u64::MAX),
                },
                MetricSnapshot {
                    name: "min.gauge".into(),
                    value: MetricValue::Gauge(i64::MIN),
                },
                MetricSnapshot {
                    name: "wide.histogram".into(),
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 1,
                        sum: u64::MAX,
                        min: u64::MAX,
                        max: u64::MAX,
                        buckets: vec![(u64::MAX - 1, u64::MAX, 1)],
                    }),
                },
            ],
        };
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_parser_accepts_whitespace_and_reordering() {
        let json = r#"
            { "metrics" : [ { "type" : "counter" , "value" : 7 ,
                              "name" : "a.b.c" } ] ,
              "registry" : "n" }
        "#;
        let snap = Snapshot::from_json(json).unwrap();
        assert_eq!(snap.registry, "n");
        assert_eq!(snap.counter_value("a.b.c"), Some(7));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json("{\"registry\":\"x\"}").is_err());
        assert!(Snapshot::from_json("[1,2,3]").is_err());
        assert!(Snapshot::from_json("{\"registry\":\"x\",\"metrics\":[]} junk").is_err());
    }

    #[test]
    fn quantiles_walk_buckets() {
        let h = HistogramSnapshot {
            count: 100,
            sum: 0,
            min: 1,
            max: 1000,
            buckets: vec![(1, 1, 50), (10, 19, 40), (992, 1055, 10)],
        };
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p90(), 19);
        // p99 lands in the last bucket; clamped to max.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_combines_buckets() {
        let mut a = HistogramSnapshot {
            count: 2,
            sum: 11,
            min: 1,
            max: 10,
            buckets: vec![(1, 1, 1), (10, 10, 1)],
        };
        let b = HistogramSnapshot {
            count: 3,
            sum: 25,
            min: 5,
            max: 10,
            buckets: vec![(5, 5, 1), (10, 10, 2)],
        };
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 36);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 10);
        assert_eq!(a.buckets, vec![(1, 1, 1), (5, 5, 1), (10, 10, 3)]);
    }

    #[test]
    fn snapshot_merge_aggregates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter_value("smr.node.decided"), Some(84));
        assert_eq!(a.gauge_value("core.signing.queue_depth"), Some(-4));
        assert_eq!(
            a.histogram("consensus.replica.write_phase_ms").unwrap().count,
            6
        );
    }

}
