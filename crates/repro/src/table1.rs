//! Table I — application details: the five evaluated applications and the
//! `ditto_apps` item implementing each.

use std::io::{self, Write};

use crate::{Claim, Target};

const TABLE: &str = "\
# Table I — application details

## Evaluated applications

| App. | Description | Algorithm details | Crate item |
|---|---|---|---|
| HISTO | Represents the distribution of numerical data | equi-width histograms (murmur3 binning) | ditto_apps::HistoApp |
| DP | Separates a big dataset into many chunks | radix hash partitioning | ditto_apps::DataPartitionApp |
| PR | Scores the importance of websites by links | fixed-point (Q32.32) PageRank | ditto_apps::PageRankApp |
| HLL | Estimates the cardinality of big datasets | murmur3-hash HyperLogLog | ditto_apps::HllApp |
| HHD | Detects heavy hitters in data streams | count-min sketch + candidates | ditto_apps::HhdApp |";

/// The table; nothing is measured, and an inventory supports no claim.
pub(crate) struct Table1;

impl Target for Table1 {
    fn measure(_tuples: usize) -> Self {
        Table1
    }

    fn render(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "{TABLE}")
    }

    fn check(&self) -> Vec<Claim> {
        Vec::new()
    }
}
