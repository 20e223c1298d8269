//! Seeded inputs and the independent oracle.
//!
//! The bike feed is rendered by `sc-datagen` from a seed. The oracle reads
//! the facts back out of the feed *text* with a plain string scanner, so no
//! answer it gives passes through sc-xml, sc-ingest or sc-dwarf. Every
//! point, range and group-by answer is then a linear scan over the
//! aggregated facts.

use sc_datagen::{BikesGenerator, BikesSpec};
use sc_ingest::DateTime;
use std::collections::HashMap;

/// The paper's eight bike dimensions, in cube order.
pub const DIMS: [&str; 8] = [
    "year", "month", "day", "hour", "area", "station", "status", "docks",
];
pub const HOUR: usize = 3;
pub const AREA: usize = 4;

/// Stations in the synthetic city (the catalog's value).
pub const STATIONS: usize = 97;

/// SplitMix64: derives independent streams from one `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_CAFE_F00D_D00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Renders a seeded bike feed of `facts` station observations spread over
/// `days` days: one XML document per snapshot of all stations.
pub fn bike_feed(seed: u64, days: i64, facts: usize) -> Vec<String> {
    let spec = BikesSpec {
        seed: Rng::new(seed).next_u64(),
        stations: STATIONS,
        start: DateTime::parse("2015-11-01T00:00:00").expect("valid start"),
        duration_minutes: days * 24 * 60,
        target_tuples: facts,
    };
    BikesGenerator::new(spec).map(|s| s.xml).collect()
}

/// The feed's facts, aggregated by their eight-dimension key (SUM of
/// `bikes`), with every dimension's values dictionary-coded in sorted
/// order so id order is string order.
#[derive(Debug)]
pub struct Facts {
    /// Sorted distinct values per dimension.
    pub values: Vec<Vec<String>>,
    /// Aggregated facts, sorted by key.
    pub rows: Vec<([u32; 8], i64)>,
    /// Station observations in the feed, before aggregation.
    pub feed_facts: usize,
    /// SUM of every measure.
    pub total: i64,
}

/// One dimension's constraint in an oracle query.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    All,
    Eq(u32),
    /// Inclusive id range.
    Between(u32, u32),
}

impl Facts {
    /// Scans the documents' text for facts.
    pub fn read(docs: &[String]) -> Facts {
        let mut raw: Vec<([String; 8], i64)> = Vec::new();
        for doc in docs {
            let stamp = attr(doc, "updated").expect("snapshot carries @updated");
            let (year, month, day, hour) =
                (&stamp[0..4], &stamp[5..7], &stamp[8..10], &stamp[11..13]);
            let mut rest = doc.as_str();
            while let Some(at) = rest.find("<station ") {
                let end = rest[at..].find("</station>").expect("closed station") + at;
                let body = &rest[at..end];
                let leaf = |name: &str| leaf_text(body, name).expect("station leaf present");
                raw.push((
                    [
                        year.to_string(),
                        month.to_string(),
                        day.to_string(),
                        hour.to_string(),
                        leaf("area"),
                        leaf("name"),
                        leaf("status"),
                        leaf("docks"),
                    ],
                    leaf("bikes").parse().expect("integer bikes"),
                ));
                rest = &rest[end..];
            }
        }
        let values: Vec<Vec<String>> = (0..8)
            .map(|d| {
                let mut v: Vec<String> = raw.iter().map(|(k, _)| k[d].clone()).collect();
                v.sort();
                v.dedup();
                v
            })
            .collect();
        let mut agg: HashMap<[u32; 8], i64> = HashMap::new();
        for (key, m) in &raw {
            let mut ids = [0u32; 8];
            for d in 0..8 {
                ids[d] = values[d].binary_search(&key[d]).expect("interned") as u32;
            }
            *agg.entry(ids).or_insert(0) += m;
        }
        let mut rows: Vec<([u32; 8], i64)> = agg.into_iter().collect();
        rows.sort_unstable();
        let total = rows.iter().map(|(_, m)| m).sum();
        Facts {
            values,
            rows,
            feed_facts: raw.len(),
            total,
        }
    }

    /// The string key of an interned fact.
    pub fn key(&self, ids: &[u32; 8]) -> Vec<String> {
        (0..8)
            .map(|d| self.values[d][ids[d] as usize].clone())
            .collect()
    }

    /// Aggregated facts as string rows, sorted (the shape a cube's
    /// `extract_tuples` returns).
    pub fn string_rows(&self) -> Vec<(Vec<String>, i64)> {
        self.rows.iter().map(|(k, m)| (self.key(k), *m)).collect()
    }

    /// SUM over the facts matching every pick; `None` when none match (the
    /// cube's answer for an empty region).
    pub fn aggregate(&self, picks: &[Pick; 8]) -> Option<i64> {
        let mut hit = false;
        let mut sum = 0i64;
        for (k, m) in &self.rows {
            if matches(k, picks) {
                hit = true;
                sum += m;
            }
        }
        hit.then_some(sum)
    }

    /// GROUP BY the masked dimensions: `(group key, SUM)` sorted by key.
    pub fn group_by(&self, mask: &[bool; 8]) -> Vec<(Vec<String>, i64)> {
        let mut groups: HashMap<Vec<u32>, i64> = HashMap::new();
        for (k, m) in &self.rows {
            let g: Vec<u32> = (0..8).filter(|&d| mask[d]).map(|d| k[d]).collect();
            *groups.entry(g).or_insert(0) += m;
        }
        let mut out: Vec<(Vec<u32>, i64)> = groups.into_iter().collect();
        out.sort_unstable();
        let dims: Vec<usize> = (0..8).filter(|&d| mask[d]).collect();
        out.into_iter()
            .map(|(g, m)| {
                let key = g
                    .iter()
                    .zip(&dims)
                    .map(|(&id, &d)| self.values[d][id as usize].clone())
                    .collect();
                (key, m)
            })
            .collect()
    }
}

fn matches(k: &[u32; 8], picks: &[Pick; 8]) -> bool {
    picks.iter().zip(k).all(|(p, &v)| match *p {
        Pick::All => true,
        Pick::Eq(x) => v == x,
        Pick::Between(lo, hi) => lo <= v && v <= hi,
    })
}

fn attr(doc: &str, name: &str) -> Option<String> {
    let open = format!("{name}=\"");
    let at = doc.find(&open)? + open.len();
    let len = doc[at..].find('"')?;
    Some(unescape(&doc[at..at + len]))
}

fn leaf_text(body: &str, name: &str) -> Option<String> {
    let open = format!("<{name}>");
    let at = body.find(&open)? + open.len();
    let len = body[at..].find(&format!("</{name}>"))?;
    Some(unescape(&body[at..at + len]))
}

fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}
