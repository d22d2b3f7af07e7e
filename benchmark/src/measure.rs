//! Measured values on their way to the output, and the tally of verdicts
//! checked while measuring them.

use crate::stats::{summarize, Summary};
use crate::workloads::Rep;
use std::collections::BTreeMap;

/// Verdicts checked so far and what was wrong with them.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.errors.extend(rep.errors.iter().cloned());
    }
}

/// A value with, where it is a median, the series behind it.
pub struct Measured {
    pub value: f64,
    pub summary: Option<Summary>,
    /// The deterministic amount of work the value was taken over.
    pub count: Option<u64>,
}

pub type Measurements = BTreeMap<String, Measured>;

pub fn put(m: &mut Measurements, name: &str, value: f64) {
    m.insert(
        name.to_string(),
        Measured {
            value,
            summary: None,
            count: None,
        },
    );
}

pub fn put_series(m: &mut Measurements, name: &str, values: &[f64]) {
    let s = summarize(values);
    m.insert(
        name.to_string(),
        Measured {
            value: s.median,
            summary: Some(s),
            count: None,
        },
    );
}
