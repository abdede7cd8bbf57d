//! Coverage minimums for the smoke suites.

/// Counts by label, each with the minimum a smoke suite must reach before
/// it may pass. Labels name protocol arms, caught injected bugs, or
/// counters summed over runs.
#[derive(Clone, Debug)]
pub(crate) struct Coverage {
    /// `(label, minimum, seen)`.
    counts: Vec<(&'static str, u64, u64)>,
}

impl Coverage {
    /// Track each `(label, minimum)`, all starting at zero.
    pub(crate) fn new(minimums: impl IntoIterator<Item = (&'static str, u64)>) -> Self {
        Coverage {
            counts: minimums.into_iter().map(|(l, min)| (l, min, 0)).collect(),
        }
    }

    /// Add `n` to `label`'s count; labels without a minimum are ignored.
    pub(crate) fn add(&mut self, label: &str, n: u64) {
        for (l, _, seen) in &mut self.counts {
            if *l == label {
                *seen += n;
            }
        }
    }

    /// `label=seen` for every tracked label, in the order given to
    /// [`Coverage::new`].
    pub(crate) fn summary(&self) -> String {
        let parts: Vec<String> = self
            .counts
            .iter()
            .map(|(l, _, seen)| format!("{l}={seen}"))
            .collect();
        parts.join(" ")
    }

    /// One message per label below its minimum; empty when coverage is met.
    pub(crate) fn shortfalls(&self) -> Vec<String> {
        self.counts
            .iter()
            .filter(|(_, min, seen)| seen < min)
            .map(|(l, min, seen)| format!("{l} reached {seen}, needs at least {min}"))
            .collect()
    }
}
