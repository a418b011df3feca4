//! The events dictionary returned by a simulation run (paper Fig. 12a):
//! a mapping from each named wire to the ordered list of pulse times that
//! appeared on it, plus helpers for the dynamic correctness checks of §5.2.

use crate::circuit::Circuit;
use crate::error::Time;
use std::collections::BTreeMap;

/// Pulse times observed on every named wire during a simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Events {
    named: BTreeMap<String, Vec<Time>>,
    all: BTreeMap<String, Vec<Time>>,
}

impl Events {
    pub(crate) fn from_wires(circuit: &Circuit, wire_events: &[Vec<Time>]) -> Self {
        let mut named = BTreeMap::new();
        let mut all = BTreeMap::new();
        for (idx, evs) in wire_events.iter().enumerate() {
            let wd = &circuit.wires[idx];
            if wd.observed {
                named.insert(wd.name.clone(), evs.clone());
            }
            all.insert(wd.name.clone(), evs.clone());
        }
        Events { named, all }
    }

    /// Pre-build an events dictionary with one empty entry per observed
    /// wire, for a sweep's per-trial check calls. `names` must be sorted
    /// ascending, so the `BTreeMap` iterates in exactly that order — the
    /// contract [`refill_named`](Self::refill_named) relies on. Only
    /// observed wires are present (a sweep does not record anonymous
    /// internal wires).
    pub(crate) fn preallocated(names: &[String]) -> Self {
        Events {
            named: names.iter().map(|n| (n.clone(), Vec::new())).collect(),
            all: BTreeMap::new(),
        }
    }

    /// Replace every named entry's pulse list in place, in sorted-name
    /// order, reusing the map and the per-entry allocations. `columns`
    /// must yield exactly one slice per named wire.
    pub(crate) fn refill_named<'t>(&mut self, mut columns: impl Iterator<Item = &'t [Time]>) {
        for v in self.named.values_mut() {
            v.clear();
            v.extend_from_slice(columns.next().expect("one column per named wire"));
        }
    }

    /// Build an events map directly (useful in tests and when importing
    /// externally produced traces).
    pub fn from_map(map: BTreeMap<String, Vec<Time>>) -> Self {
        Events {
            all: map.clone(),
            named: map,
        }
    }

    /// The pulses seen on the named wire, in time order. Unknown names
    /// yield an empty slice.
    pub fn times(&self, name: &str) -> &[Time] {
        self.named
            .get(name)
            .or_else(|| self.all.get(name))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Names of all observed (user-named) wires.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.named.keys().map(String::as_str)
    }

    /// Iterate over `(name, times)` for observed wires.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Time])> {
        self.named.iter().map(|(n, t)| (n.as_str(), t.as_slice()))
    }

    /// Iterate over `(name, times)` for *every* wire, including anonymous
    /// internal ones (named `_N`).
    pub fn iter_all(&self) -> impl Iterator<Item = (&str, &[Time])> {
        self.all.iter().map(|(n, t)| (n.as_str(), t.as_slice()))
    }

    /// Total number of pulses observed on named wires.
    pub fn pulse_count(&self) -> usize {
        self.named.values().map(Vec::len).sum()
    }

    /// Total number of pulses on all wires (a measure of simulation work).
    pub fn pulse_count_all(&self) -> usize {
        self.all.values().map(Vec::len).sum()
    }

    /// True if no pulses were observed on any named wire.
    pub fn is_empty(&self) -> bool {
        self.pulse_count() == 0
    }

    /// All pulses on wires whose name satisfies `pred`, as `(name, time)`
    /// pairs sorted by time — the shape used by the paper's §5.2 assertions.
    pub fn pulses_where<F: Fn(&str) -> bool>(&self, pred: F) -> Vec<(&str, Time)> {
        let mut out: Vec<(&str, Time)> = self
            .named
            .iter()
            .filter(|(n, _)| pred(n))
            .flat_map(|(n, ts)| ts.iter().map(move |t| (n.as_str(), *t)))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(b.0)));
        out
    }

    /// Check the §5.2 interleaving property: among the pulses on the given
    /// wires, no two consecutive pulses (by time) come from the same group.
    /// `group` maps a wire name to its group key (e.g. `A_T`/`A_F` → `"A"`).
    pub fn interleaved<F: Fn(&str) -> Option<String>>(&self, group: F) -> bool {
        let pulses = self.pulses_where(|n| group(n).is_some());
        pulses
            .windows(2)
            .all(|w| group(w[0].0) != group(w[1].0))
    }

    /// Render as CSV: `wire,time` rows in time order per wire.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("wire,time\n");
        for (name, times) in &self.named {
            for t in times {
                s.push_str(&format!("{name},{t}\n"));
            }
        }
        s
    }

    /// Compare against expected pulse times with an absolute tolerance.
    pub fn matches(&self, name: &str, expected: &[Time], tol: Time) -> bool {
        let got = self.times(name);
        got.len() == expected.len()
            && got
                .iter()
                .zip(expected)
                .all(|(g, e)| (g - e).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Events {
        let mut m = BTreeMap::new();
        m.insert("A_T".to_string(), vec![10.0, 40.0]);
        m.insert("B_T".to_string(), vec![20.0]);
        m.insert("B_F".to_string(), vec![55.0]);
        m.insert("Q".to_string(), vec![30.0, 60.0]);
        Events::from_map(m)
    }

    #[test]
    fn times_and_names() {
        let e = sample();
        assert_eq!(e.times("Q"), &[30.0, 60.0]);
        assert_eq!(e.times("missing"), &[] as &[f64]);
        assert_eq!(e.names().count(), 4);
        assert_eq!(e.pulse_count(), 6);
        assert!(!e.is_empty());
    }

    #[test]
    fn pulses_where_sorts_by_time() {
        let e = sample();
        let ps = e.pulses_where(|n| n.starts_with('A') || n.starts_with('B'));
        assert_eq!(
            ps,
            vec![("A_T", 10.0), ("B_T", 20.0), ("A_T", 40.0), ("B_F", 55.0)]
        );
    }

    #[test]
    fn interleaving_check() {
        let e = sample();
        let group = |n: &str| {
            if n.starts_with("A_") {
                Some("A".to_string())
            } else if n.starts_with("B_") {
                Some("B".to_string())
            } else {
                None
            }
        };
        // A@10, B@20, A@40, B@55: interleaved.
        assert!(e.interleaved(group));
        let mut m = BTreeMap::new();
        m.insert("A_T".to_string(), vec![10.0, 20.0]);
        m.insert("B_T".to_string(), vec![30.0]);
        let bad = Events::from_map(m);
        assert!(!bad.interleaved(|n: &str| Some(n[..1].to_string())));
    }

    #[test]
    fn csv_shape() {
        let e = sample();
        let csv = e.to_csv();
        assert!(csv.starts_with("wire,time\n"));
        assert!(csv.contains("Q,30\n"));
    }

    #[test]
    fn matches_with_tolerance() {
        let e = sample();
        assert!(e.matches("Q", &[30.0, 60.0], 0.0));
        assert!(e.matches("Q", &[30.05, 59.95], 0.1));
        assert!(!e.matches("Q", &[30.0], 0.1));
        assert!(!e.matches("Q", &[31.0, 60.0], 0.1));
    }
}
