//! Seeded inputs: the lineitem table, the ingest stream and every query
//! stream. The same seed gives the same inputs; the program under test
//! only ever sees what these functions generate.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{Relation, Value};
use tpcd::{GeneratorConfig, TpcdDataset, Zipf};

/// `T`, the paper's default table size (§7.1.1).
pub const TABLE_ROWS: usize = 1_000_000;
/// Finest groups over `G = {l_returnflag, l_linestatus, l_shipdate}`.
const GROUPS: usize = 1000;
/// Zipf skew of group sizes, aggregate values and query popularity.
const SKEW: f64 = 0.86;
/// The synopsis budget: 5% of `T`.
pub const SAMPLE_ROWS: usize = TABLE_ROWS / 20;
/// Rows per ingest batch.
pub const BATCH_ROWS: usize = 1000;
/// Distinct values per grouping column (`GROUPS^(1/3)`).
const DISTINCT: i64 = 10;

/// The generator spreads the ten `l_shipdate` values 220 days apart.
fn shipdate(i: i64) -> i64 {
    9_500 + i * 220
}

/// Salts that keep every seeded stream independent of the others.
#[derive(Clone, Copy)]
pub enum Stream {
    Table = 1,
    IngestRows,
    Catalogue,
    Dashboard,
    Explore,
    Exact,
}

/// The RNG of one stream (or one region of it) for `seed`.
pub fn rng(seed: u64, stream: Stream, region: u64) -> StdRng {
    let salt = (stream as u64) << 32 | region;
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn dataset(seed: u64, rows: usize) -> TpcdDataset {
    TpcdDataset::generate(GeneratorConfig {
        table_size: rows,
        num_groups: GROUPS,
        group_skew: SKEW,
        agg_skew: SKEW,
        seed,
    })
}

/// The `T`-row lineitem table in the §7.1.1 shape.
pub fn table(seed: u64) -> Relation {
    dataset(rng(seed, Stream::Table, 0).gen(), TABLE_ROWS).relation
}

/// `batches` batches of [`BATCH_ROWS`] rows from a second stream of the
/// same distribution, numbered after the base table's `l_id`s.
pub fn ingest_batches(seed: u64, batches: usize) -> Vec<Vec<Vec<Value>>> {
    let rows = (batches * BATCH_ROWS).max(GROUPS);
    let rel = dataset(rng(seed, Stream::IngestRows, 0).gen(), rows).relation;
    (0..batches)
        .map(|b| {
            (b * BATCH_ROWS..(b + 1) * BATCH_ROWS)
                .map(|r| {
                    let mut row = rel.row(r).expect("row index is within the generated table");
                    row[0] = Value::Int((TABLE_ROWS + r + 1) as i64);
                    row
                })
                .collect()
        })
        .collect()
}

const GROUPINGS: [&[&str]; 8] = [
    &[],
    &["l_returnflag"],
    &["l_linestatus"],
    &["l_shipdate"],
    &["l_returnflag", "l_linestatus"],
    &["l_returnflag", "l_shipdate"],
    &["l_linestatus", "l_shipdate"],
    &["l_returnflag", "l_linestatus", "l_shipdate"],
];

const AGGREGATES: [&str; 5] = [
    "SUM(l_quantity)",
    "SUM(l_extendedprice)",
    "COUNT(*)",
    "AVG(l_quantity)",
    "AVG(l_extendedprice)",
];

fn select(cols: &[&str], aggs: &[&str], filter: &str) -> String {
    let mut items: Vec<&str> = cols.to_vec();
    items.extend_from_slice(aggs);
    let mut sql = format!("SELECT {} FROM lineitem", items.join(", "));
    if !filter.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(filter);
    }
    if !cols.is_empty() {
        sql.push_str(" GROUP BY ");
        sql.push_str(&cols.join(", "));
    }
    sql
}

/// Band widths as a share of `T` (in 1/1000): 1%, 2.5%, 5% and 10%. A
/// query's width comes from its position, not the seed, so every seed
/// mixes the same selectivities and only the band positions move.
const BAND_PERMILLE: [usize; 4] = [10, 25, 50, 100];

/// An `l_id` band of the `k`-th ladder width at a seeded position.
fn id_band(rng: &mut StdRng, k: usize) -> String {
    let width = (TABLE_ROWS * BAND_PERMILLE[k % BAND_PERMILLE.len()] / 1000) as i64;
    let lo = rng.gen_range(1..=TABLE_ROWS as i64 - width);
    format!("l_id BETWEEN {lo} AND {}", lo + width - 1)
}

/// An `l_shipdate` range spanning at least three of the ten dates.
fn date_range(rng: &mut StdRng) -> String {
    let a = rng.gen_range(0..DISTINCT - 2);
    let b = rng.gen_range(a + 2..DISTINCT);
    format!("l_shipdate BETWEEN {} AND {}", shipdate(a), shipdate(b))
}

/// Popularity rank → position in the catalogue as built below. Fixed for
/// every seed, so seeds change constants, not how much each kind of query
/// (and each response size: 1 to 1000 groups) weighs in the mix. `Q_g3`,
/// the one 1000-group answer, ranks second: about 11% of requests, so the
/// p95 tail sits inside its class instead of on a class boundary.
const POPULARITY: [usize; 32] = [
    0, 1, 14, 3, 2, 24, 4, 20, 25, 18, 5, 16, 26, 6, 22, 27, 7, 15, 28, 8, 19, 29, 9, 21, 30, 10,
    17, 31, 11, 23, 12, 13,
];

/// The dashboard's 32 SQL texts, most popular first: Table 2's `Q_g2` and
/// `Q_g3`, twelve `Q_g0` range queries (`c` = 7% of `T`), unfiltered
/// queries over the other non-empty subsets of `G`, and queries whose
/// predicates touch only grouping columns.
pub fn catalogue(seed: u64) -> Vec<String> {
    let mut rng = rng(seed, Stream::Catalogue, 0);
    let mut out = vec![
        select(
            &["l_returnflag", "l_linestatus"],
            &["SUM(l_quantity)", "SUM(l_extendedprice)"],
            "",
        ),
        select(GROUPINGS[7], &["SUM(l_quantity)"], ""),
    ];
    let c = (TABLE_ROWS * 7 / 100) as i64;
    for _ in 0..12 {
        let s = rng.gen_range(1..=TABLE_ROWS as i64 - c);
        out.push(select(
            &[],
            &["SUM(l_quantity)"],
            &format!("l_id BETWEEN {s} AND {}", s + c),
        ));
    }
    for cols in [1, 2, 3, 5, 6].map(|g| GROUPINGS[g]) {
        out.push(select(cols, &["SUM(l_extendedprice)", "COUNT(*)"], ""));
        out.push(select(cols, &["AVG(l_quantity)"], ""));
    }
    let mut v = || rng.gen_range(0..DISTINCT);
    let (rf, ls, ls2, rf2, lo) = (v(), v(), v(), v(), v());
    let d = shipdate(v());
    out.extend([
        select(
            &["l_linestatus"],
            &["SUM(l_quantity)"],
            &format!("l_returnflag = {rf}"),
        ),
        select(
            &["l_returnflag"],
            &["COUNT(*)"],
            &format!("l_linestatus = {ls}"),
        ),
        select(
            &["l_shipdate"],
            &["SUM(l_extendedprice)"],
            &date_range(&mut rng),
        ),
        select(
            &["l_returnflag", "l_shipdate"],
            &["AVG(l_quantity)"],
            &format!("l_linestatus = {ls2}"),
        ),
        select(
            &["l_linestatus", "l_shipdate"],
            &["SUM(l_quantity)"],
            &format!(
                "l_returnflag BETWEEN {} AND {}",
                lo.min(DISTINCT - 4),
                lo.min(DISTINCT - 4) + 3
            ),
        ),
        select(
            &["l_returnflag", "l_linestatus"],
            &["COUNT(*)"],
            &format!("l_shipdate >= {d}"),
        ),
        select(
            GROUPINGS[7],
            &["SUM(l_extendedprice)"],
            &format!("l_returnflag = {rf2}"),
        ),
        select(
            &["l_shipdate"],
            &["AVG(l_extendedprice)"],
            &format!("l_linestatus <> {ls}"),
        ),
    ]);
    POPULARITY.iter().map(|&i| out[i].clone()).collect()
}

/// `n` indices into the popularity-ordered catalogue, drawn Zipf; `region`
/// separates the measured and probe draws.
pub fn dashboard_stream(seed: u64, region: u64, catalogue_len: usize, n: usize) -> Vec<usize> {
    let zipf = Zipf::new(catalogue_len, SKEW);
    let mut rng = rng(seed, Stream::Dashboard, region);
    (0..n).map(|_| zipf.sample(&mut rng) - 1).collect()
}

/// `n` explore queries whose normalized texts are pairwise distinct. Each
/// run of 64 queries pairs every subset of `G` (cycling from a seeded
/// offset) with every band width, once alone and once AND an
/// `l_shipdate` range; the aggregate (SUM/COUNT/AVG) and the band and date
/// positions are seeded.
pub fn explore_stream(seed: u64, n: usize) -> Vec<String> {
    let mut rng = rng(seed, Stream::Explore, 0);
    let offset = rng.gen_range(0..GROUPINGS.len());
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let i = out.len();
        let cols = GROUPINGS[(i + offset) % GROUPINGS.len()];
        let agg = AGGREGATES[rng.gen_range(0..AGGREGATES.len())];
        let round = i / GROUPINGS.len();
        let mut filter = id_band(&mut rng, round);
        if (round / BAND_PERMILLE.len()) % 2 == 1 {
            filter = format!("{filter} AND {}", date_range(&mut rng));
        }
        let sql = select(cols, &[agg], &filter);
        let key = engine::sql::normalize(&sql).expect("generated SQL normalizes");
        if seen.insert(key) {
            out.push(sql);
        }
    }
    out
}

/// `n` exact-path queries in a fixed class cycle of eight: three
/// prunable `l_id` bands, two `l_shipdate` ranges and two flag
/// equalities (scanned by the code-domain kernels, nothing to prune), and
/// one unfiltered query alternating `Q_g2` and `Q_g3`.
pub fn exact_stream(seed: u64, region: u64, n: usize) -> Vec<String> {
    let mut rng = rng(seed, Stream::Exact, region);
    (0..n)
        .map(|i| match i % 8 {
            0 | 3 | 5 => select(
                &["l_returnflag", "l_linestatus"],
                &["SUM(l_quantity)"],
                &id_band(&mut rng, i % 8 + i / 8),
            ),
            1 | 6 => select(
                &["l_returnflag"],
                &["SUM(l_extendedprice)"],
                &date_range(&mut rng),
            ),
            2 => select(
                &["l_shipdate"],
                &["COUNT(*)"],
                &format!("l_returnflag = {}", rng.gen_range(0..DISTINCT)),
            ),
            4 => select(
                &[],
                &["SUM(l_quantity)"],
                &format!("l_linestatus = {}", rng.gen_range(0..DISTINCT)),
            ),
            _ if (i / 8) % 2 == 0 => select(
                &["l_returnflag", "l_linestatus"],
                &["SUM(l_quantity)", "SUM(l_extendedprice)"],
                "",
            ),
            _ => select(GROUPINGS[7], &["SUM(l_quantity)"], ""),
        })
        .collect()
}

/// Whether request `i` of a phase belongs to the seeded output-check
/// subset (about one in `one_in`).
pub fn picked(seed: u64, phase: u64, i: usize, one_in: u64) -> bool {
    let mut x = seed
        ^ phase.wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    x.is_multiple_of(one_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcd::LineitemSchema;

    fn parses(sql: &str) {
        engine::sql::parse(&LineitemSchema::schema(), sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for seed in [0, 7, u64::MAX] {
            assert_eq!(catalogue(seed), catalogue(seed));
            assert_eq!(
                dashboard_stream(seed, 1, 32, 500),
                dashboard_stream(seed, 1, 32, 500)
            );
            assert_eq!(explore_stream(seed, 300), explore_stream(seed, 300));
            assert_eq!(exact_stream(seed, 2, 64), exact_stream(seed, 2, 64));
        }
        assert_ne!(explore_stream(1, 50), explore_stream(2, 50));
        assert_ne!(
            dashboard_stream(1, 1, 32, 50),
            dashboard_stream(1, 2, 32, 50)
        );
    }

    #[test]
    fn explore_never_repeats_a_normalized_text() {
        let stream = explore_stream(11, 5000);
        let keys: HashSet<String> = stream
            .iter()
            .map(|s| engine::sql::normalize(s).unwrap())
            .collect();
        assert_eq!(keys.len(), stream.len());
    }

    #[test]
    fn every_generated_text_parses() {
        let cat = catalogue(3);
        assert_eq!(cat.len(), 32);
        assert_eq!(cat.iter().collect::<HashSet<_>>().len(), 32);
        cat.iter().for_each(|s| parses(s));
        explore_stream(3, 64).iter().for_each(|s| parses(s));
        exact_stream(3, 0, 16).iter().for_each(|s| parses(s));
    }

    #[test]
    fn explore_covers_every_grouping_equally() {
        let stream = explore_stream(5, 800);
        for cols in GROUPINGS.iter().filter(|c| !c.is_empty()) {
            let tail = format!("GROUP BY {}", cols.join(", "));
            assert_eq!(stream.iter().filter(|s| s.ends_with(&tail)).count(), 100);
        }
    }

    #[test]
    fn picked_subset_is_seeded_and_sparse() {
        let a: Vec<bool> = (0..4000).map(|i| picked(9, 1, i, 32)).collect();
        assert_eq!(
            a,
            (0..4000).map(|i| picked(9, 1, i, 32)).collect::<Vec<_>>()
        );
        let n = a.iter().filter(|&&p| p).count();
        assert!((60..200).contains(&n), "{n} picked");
    }
}
