//! Named metrics of one pass, and the JSON the benchmark prints.

/// How a metric may be compared between passes and runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Virtual time or a count: a pure function of the seed, so repeated
    /// passes on one seed must agree bit for bit.
    Exact,
    /// Host wall time or memory: differs between passes.
    Wall,
}

/// Which printed set a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Set {
    /// Printed by the untraced run.
    EndToEnd,
    /// Printed by the traced run.
    Layer,
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// Exact or wall.
    pub kind: Kind,
    /// End-to-end or per-layer.
    pub set: Set,
}

/// The ordered metrics of one pass.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Metrics in insertion order; names are unique.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &str, kind: Kind, set: Set) {
        assert!(
            self.get(name).is_none(),
            "metric {name} reported twice in one pass"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            kind,
            set,
        });
    }

    /// An exact end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::Exact, Set::EndToEnd);
    }

    /// A wall-clock end-to-end metric.
    pub fn e2e_wall(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::Wall, Set::EndToEnd);
    }

    /// An exact per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::Exact, Set::Layer);
    }

    /// A wall-clock per-layer metric.
    pub fn layer_wall(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::Wall, Set::Layer);
    }

    /// The metric called `name`, if reported.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank percentile of a sorted sample, in the sample's unit.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The tolerance keeps 99.9% of 1000 at rank 999 despite rounding.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Add the p50 and p99 of `ns`, in milliseconds, under `prefix`; for an
/// end-to-end latency also the p999 and the sample count.
pub fn latency_percentiles(r: &mut Report, prefix: &str, ns: &mut [u64], set: Set) {
    ns.sort_unstable();
    if ns.is_empty() {
        return;
    }
    let mut put = |p: f64, suffix: &str| {
        let v = percentile(ns, p) as f64 / 1e6;
        r.push(&format!("{prefix}{suffix}"), v, "ms", Kind::Exact, set);
    };
    put(50.0, "p50_ms");
    put(99.0, "p99_ms");
    if set == Set::EndToEnd {
        put(99.9, "p999_ms");
        r.push(
            "latency.samples",
            ns.len() as f64,
            "count",
            Kind::Exact,
            Set::Layer,
        );
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), in the order listed there.
pub fn declared(section: &str) -> Vec<(&'static str, &'static str)> {
    const MANIFEST: &str = include_str!("../../BENCHMARK.json");
    let start = MANIFEST
        .find(&format!("\"{section}\""))
        .expect("section in BENCHMARK.json");
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("a name");
            let unit = rest
                .split_once("\"unit\": \"")
                .and_then(|(_, u)| u.split_once('"'))
                .expect("a unit")
                .0;
            (name, unit)
        })
        .collect()
}

/// The metrics of `section` in declared order. A per-layer metric of a
/// layer the workload does not exercise (no nesting outside Vacation, no
/// admission queue outside the open loop, ...) is printed as 0, and its
/// name is returned in the second list; an end-to-end metric must be
/// reported. Any metric reported outside `section`, or in another unit, is
/// an error.
pub fn complete(
    reported: Vec<Metric>,
    section: &str,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let decl = declared(section);
    if let Some(m) = reported
        .iter()
        .find(|m| !decl.contains(&(m.name.as_str(), m.unit.as_str())))
    {
        return Err(format!(
            "{} ({}) is not declared in {section}",
            m.name, m.unit
        ));
    }
    let (mut out, mut zero) = (Vec::new(), Vec::new());
    for (name, unit) in decl {
        if let Some(m) = reported.iter().find(|m| m.name == name) {
            out.push(m.clone());
        } else if section == "per_layer" {
            zero.push(name.to_string());
            out.push(Metric {
                name: name.into(),
                value: 0.0,
                unit: unit.into(),
                kind: Kind::Exact,
                set: Set::Layer,
            });
        } else {
            return Err(format!("the workload reported no {name}"));
        }
    }
    Ok((out, zero))
}

/// The JSON object of `metrics`, each as `{"value": v, "unit": u}`.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 50.0), 500);
        assert_eq!(percentile(&xs, 99.0), 990);
        assert_eq!(percentile(&xs, 99.9), 999);
    }

    #[test]
    fn end_to_end_latency_has_p999_and_sample_count() {
        let mut r = Report::default();
        let mut xs: Vec<u64> = (1..=1000).rev().map(|x| x * 1_000_000).collect();
        latency_percentiles(&mut r, "a_", &mut xs, Set::EndToEnd);
        assert_eq!(r.get("a_p999_ms").map(|m| m.value), Some(999.0));
        assert_eq!(r.get("latency.samples").map(|m| m.value), Some(1000.0));
        let mut r = Report::default();
        latency_percentiles(&mut r, "b_", &mut xs, Set::Layer);
        assert!(r.get("b_p999_ms").is_none() && r.get("latency.samples").is_none());
    }

    #[test]
    fn manifest_sections_parse() {
        let e2e = declared("end_to_end");
        assert_eq!(e2e[0], ("setup_s", "s"));
        assert!(declared("per_layer").contains(&("sim.events_per_commit", "count")));
        assert!(e2e.iter().all(|(n, _)| !n.contains('.')));
    }

    #[test]
    fn per_layer_gaps_are_zero_and_end_to_end_gaps_fail() {
        let m = |name: &str, unit: &str, set| Metric {
            name: name.into(),
            value: 2.0,
            unit: unit.into(),
            kind: Kind::Exact,
            set,
        };
        let (out, zero) = complete(
            vec![m("sim.events_per_commit", "count", Set::Layer)],
            "per_layer",
        )
        .unwrap();
        assert_eq!(out.len(), declared("per_layer").len());
        assert!(!zero.contains(&"sim.events_per_commit".to_string()));
        assert!(zero.contains(&"nesting.checkpoints_per_commit".to_string()));
        assert!(complete(vec![m("setup_s", "s", Set::EndToEnd)], "end_to_end").is_err());
        assert!(complete(
            vec![m("sim.events_per_commit", "ms", Set::Layer)],
            "per_layer"
        )
        .is_err());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
