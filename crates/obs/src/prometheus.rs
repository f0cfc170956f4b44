//! Prometheus text exposition (format version 0.0.4) for snapshots.
//!
//! External tooling ingests the cluster's metrics through this
//! renderer: every registry becomes a `node="<registry>"` label, so a
//! multi-node scrape concatenates into one exposition where the same
//! metric family carries one sample per replica. The output is
//! deterministic (families sorted by name, samples sorted by
//! registry) so tests and diffs are stable.
//!
//! Mapping:
//!
//! * counter → `# TYPE <name> counter` + one sample per registry
//! * gauge → `# TYPE <name> gauge` + one sample per registry
//! * histogram → `# TYPE <name> histogram`, cumulative
//!   `<name>_bucket{le="…"}` series ending in `le="+Inf"`, plus
//!   `<name>_sum` / `<name>_count`
//!
//! Dotted metric names are mangled to Prometheus' `[a-zA-Z0-9_:]`
//! alphabet (dots and any other illegal byte become `_`, a leading
//! digit gains a `_` prefix); label values escape `\`, `"` and
//! newlines per the exposition spec.

use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot};
use std::collections::BTreeMap;

/// Mangles a dotted metric name into the Prometheus name alphabet.
pub(crate) fn mangle_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
pub(crate) fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One metric family: the value kind plus `(registry, value)` samples.
struct Family<'a> {
    kind: &'static str,
    samples: Vec<(&'a str, &'a MetricValue)>,
}

/// Renders `snapshots` (one per registry, e.g. one per replica) as one
/// Prometheus text exposition. Families are sorted by mangled name;
/// within a family, samples keep the snapshot order given (scrapers
/// pass replicas in id order).
pub fn to_prometheus(snapshots: &[Snapshot]) -> String {
    // Group samples by mangled family name, tracking the kind from
    // the first occurrence (registries share metric schemas; on a
    // kind clash the later sample is dropped rather than emitting an
    // exposition that contradicts its own TYPE line).
    let mut families: BTreeMap<String, Family<'_>> = BTreeMap::new();
    for snap in snapshots {
        for m in &snap.metrics {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let family = families.entry(mangle_name(&m.name)).or_insert(Family {
                kind,
                samples: Vec::new(),
            });
            if family.kind == kind {
                family.samples.push((&snap.registry, &m.value));
            }
        }
    }

    let mut out = String::new();
    for (name, family) in &families {
        out.push_str(&format!("# TYPE {name} {}\n", family.kind));
        for (registry, value) in &family.samples {
            let node = escape_label(registry);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name}{{node=\"{node}\"}} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name}{{node=\"{node}\"}} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    write_histogram(&mut out, name, &node, h);
                }
            }
        }
    }
    out
}

/// Cumulative `_bucket` series + `_sum` / `_count` for one histogram.
fn write_histogram(out: &mut String, name: &str, node: &str, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for &(_, upper, count) in &h.buckets {
        cumulative += count;
        out.push_str(&format!(
            "{name}_bucket{{node=\"{node}\",le=\"{upper}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{node=\"{node}\",le=\"+Inf\"}} {}\n",
        h.count
    ));
    out.push_str(&format!("{name}_sum{{node=\"{node}\"}} {}\n", h.sum));
    out.push_str(&format!("{name}_count{{node=\"{node}\"}} {}\n", h.count));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::snapshot::MetricSnapshot;

    #[test]
    fn name_mangling_maps_dots_and_leading_digits() {
        assert_eq!(mangle_name("smr.node.decided"), "smr_node_decided");
        assert_eq!(mangle_name("a.b-c/d e"), "a_b_c_d_e");
        assert_eq!(mangle_name("0day.metric"), "_0day_metric");
        assert_eq!(mangle_name("ok_name:rate"), "ok_name:rate");
    }

    #[test]
    fn label_escaping_covers_quote_backslash_newline() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let snap = Snapshot {
            registry: "node \"0\"\\\n".into(),
            metrics: vec![MetricSnapshot {
                name: "a.b.c".into(),
                value: MetricValue::Counter(1),
            }],
        };
        let text = to_prometheus(&[snap]);
        assert!(
            text.contains("a_b_c{node=\"node \\\"0\\\"\\\\\\n\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn histogram_emits_cumulative_buckets_and_quantiles_recover() {
        let h = HistogramSnapshot {
            count: 100,
            sum: 1234,
            min: 1,
            max: 40,
            buckets: vec![(1, 1, 50), (10, 19, 40), (32, 40, 10)],
        };
        let snap = Snapshot {
            registry: "node-0".into(),
            metrics: vec![MetricSnapshot {
                name: "x.y.lat_us".into(),
                value: MetricValue::Histogram(h.clone()),
            }],
        };
        let text = to_prometheus(&[snap]);
        assert!(text.contains("# TYPE x_y_lat_us histogram"), "{text}");
        // Cumulative counts at each le bound, closed by +Inf.
        assert!(text.contains("x_y_lat_us_bucket{node=\"node-0\",le=\"1\"} 50"));
        assert!(text.contains("x_y_lat_us_bucket{node=\"node-0\",le=\"19\"} 90"));
        assert!(text.contains("x_y_lat_us_bucket{node=\"node-0\",le=\"40\"} 100"));
        assert!(text.contains("x_y_lat_us_bucket{node=\"node-0\",le=\"+Inf\"} 100"));
        assert!(text.contains("x_y_lat_us_sum{node=\"node-0\"} 1234"));
        assert!(text.contains("x_y_lat_us_count{node=\"node-0\"} 100"));

        // The emitted buckets preserve enough to recover quantiles: walk
        // the cumulative series exactly as a Prometheus histogram_quantile
        // would and compare with the snapshot's own answer.
        let quantile_from_text = |q: f64| -> u64 {
            let target = ((q * h.count as f64).ceil() as u64).max(1);
            for line in text.lines() {
                let Some(rest) = line.strip_prefix("x_y_lat_us_bucket{node=\"node-0\",le=\"") else {
                    continue;
                };
                let Some((le, cum)) = rest.split_once("\"} ") else {
                    continue;
                };
                if le == "+Inf" {
                    continue;
                }
                if cum.parse::<u64>().unwrap_or(0) >= target {
                    return le.parse::<u64>().unwrap_or(0).min(h.max);
                }
            }
            h.max
        };
        assert_eq!(quantile_from_text(0.5), h.p50());
        assert_eq!(quantile_from_text(0.9), h.p90());
        assert_eq!(quantile_from_text(0.99), h.p99());
    }

    #[test]
    fn multi_registry_merges_into_one_family_per_metric() {
        let mk = |reg: &str, v: u64| Snapshot {
            registry: reg.into(),
            metrics: vec![MetricSnapshot {
                name: "a.b.c".into(),
                value: MetricValue::Counter(v),
            }],
        };
        let text = to_prometheus(&[mk("node-0", 1), mk("node-1", 2)]);
        assert_eq!(text.matches("# TYPE a_b_c counter").count(), 1);
        assert!(text.contains("a_b_c{node=\"node-0\"} 1"));
        assert!(text.contains("a_b_c{node=\"node-1\"} 2"));
    }

    /// Every metric in a *live* registry snapshot appears exactly once
    /// in the exposition (one TYPE line, one sample series per
    /// registry), with no extras and no omissions.
    #[test]
    fn live_registry_round_trips_exactly_once() {
        let registry = Registry::new("node-0");
        registry.counter("smr.node.decided").add(42);
        registry.gauge("core.signing.queue_depth").set(-3);
        let lat = registry.histogram("consensus.replica.write_phase_ms");
        for v in [1, 1, 5, 90, 700] {
            lat.record(v);
        }
        let snap = registry.snapshot();
        let text = to_prometheus(std::slice::from_ref(&snap));

        for m in &snap.metrics {
            let name = mangle_name(&m.name);
            assert_eq!(
                text.matches(&format!("# TYPE {name} ")).count(),
                1,
                "TYPE line for {name} not exactly once:\n{text}"
            );
            let series = match m.value {
                MetricValue::Histogram(_) => format!("{name}_count{{node=\"node-0\"}}"),
                _ => format!("{name}{{node=\"node-0\"}}"),
            };
            assert_eq!(
                text.matches(series.as_str()).count(),
                1,
                "sample for {name} not exactly once:\n{text}"
            );
        }
        // No omissions: every non-comment line belongs to a snapshot metric.
        let names: Vec<String> = snap.metrics.iter().map(|m| mangle_name(&m.name)).collect();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                names.iter().any(|n| line.starts_with(n.as_str())),
                "orphan exposition line: {line}"
            );
        }
    }
}
