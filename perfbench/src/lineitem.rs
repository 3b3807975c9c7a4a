//! `lineitem` data and the COUNT queries over it, shared by the library
//! workloads and the COUNT share of `serve_mix`.

use acq_datagen::{tpch, GenConfig};
use std::sync::Arc;

use acq_engine::{Catalog, ColumnData, Table};
use acq_query::{
    AcqQuery, AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide,
};

/// The three flexible predicates every COUNT query refines.
pub const DIMS: [&str; 3] = ["l_quantity", "l_extendedprice", "l_discount"];

/// Seed of every workload's tables. The tables are the same in every run;
/// `--seed` varies the query stream. With seeded Zipf tables the explored
/// cell count, and so the latency, moved by up to 15% between seeds.
pub const DATA_SEED: u64 = 0xACC_0FFEE;

/// Rows sampled per column to place initial bounds at data quantiles.
const QUANTILE_SAMPLE: usize = 4096;

/// Generates the `lineitem` catalog with the program's own data generator.
pub fn generate(rows: usize, zipf_z: f64) -> Catalog {
    tpch::generate_lineitem(&GenConfig {
        rows,
        seed: DATA_SEED,
        zipf_z,
    })
    .expect("generate lineitem")
}

/// The benchmark's read-only view of one `lineitem` table, used to pick
/// query bounds and targets without going through the program. It reads
/// the program's own column storage and copies only a 4096-row sample per
/// column, so the process's memory high-water mark is the program's.
#[derive(Debug)]
pub struct Columns {
    table: Arc<Table>,
    sorted_sample: [Vec<f64>; 3],
    domains: [Interval; 3],
}

impl Columns {
    /// A view of `table`.
    pub fn new(table: Arc<Table>) -> Self {
        let sorted_sample = DIMS.map(|name| {
            let v = floats(&table, name);
            let stride = (v.len() / QUANTILE_SAMPLE).max(1);
            let mut s: Vec<f64> = v.iter().step_by(stride).copied().collect();
            s.sort_by(f64::total_cmp);
            s
        });
        let domains = DIMS.map(|d| table.numeric_domain(d).expect("numeric domain"));
        Self {
            table,
            sorted_sample,
            domains,
        }
    }

    /// Rows in the table.
    pub fn rows(&self) -> usize {
        self.table.num_rows()
    }

    /// The upper bound that admits about `frac` of column `k`.
    pub fn bound(&self, k: usize, frac: f64) -> f64 {
        let s = &self.sorted_sample[k];
        let idx = ((s.len() - 1) as f64 * frac.clamp(0.0, 1.0)).round() as usize;
        s[idx].max(self.domains[k].lo())
    }

    /// Rows admitted when column `k` is at most `bounds[k]` for every `k`.
    pub fn count(&self, bounds: &[f64; 3]) -> u64 {
        let [a, b, c] = DIMS.map(|name| floats(&self.table, name));
        a.iter()
            .zip(b)
            .zip(c)
            .filter(|((x, y), z)| **x <= bounds[0] && **y <= bounds[1] && **z <= bounds[2])
            .count() as u64
    }

    /// Domain of column `k`.
    pub fn domain(&self, k: usize) -> Interval {
        self.domains[k]
    }
}

/// The values of float column `name`, borrowed from the table.
fn floats<'a>(table: &'a Table, name: &str) -> &'a [f64] {
    match table.column_by_name(name) {
        Some(ColumnData::Float(v)) => v,
        _ => panic!("lineitem.{name} is not a float column"),
    }
}

/// The COUNT ACQ `SELECT * FROM lineitem CONSTRAINT COUNT(*) <op> target
/// WHERE l_quantity <= b0 AND l_extendedprice <= b1 AND l_discount <= b2`,
/// built through the query API with domains attached.
pub fn count_query(cols: &Columns, bounds: &[f64; 3], op: CmpOp, target: f64) -> AcqQuery {
    let mut b = AcqQuery::builder().table("lineitem");
    for (k, name) in DIMS.iter().enumerate() {
        let domain = cols.domain(k);
        b = b.predicate(
            Predicate::select(
                ColRef::new("lineitem", *name),
                Interval::new(domain.lo(), bounds[k]),
                RefineSide::Upper,
            )
            .with_domain(domain),
        );
    }
    b.constraint(AggConstraint::new(AggregateSpec::count(), op, target))
        .build()
        .expect("valid count query")
}

/// A stratified, seed-shifted sequence in `[0, 1)`: `i`-th point of the
/// additive recurrence with irrational step `alpha`. Every run covers the
/// unit interval evenly whatever the seed, so medians over a run do not
/// drift with the seed while the queries themselves differ.
pub fn weyl(seed_shift: f64, alpha: f64, i: u64) -> f64 {
    (seed_shift + alpha * i as f64).fract()
}

/// Irrational steps for independent [`weyl`] sequences.
pub const ALPHAS: [f64; 4] = [
    0.618_033_988_749_894_9, // golden ratio
    0.414_213_562_373_095_1, // sqrt 2
    0.732_050_807_568_877_3, // sqrt 3
    0.236_067_977_499_789_7, // sqrt 5
];

/// SplitMix64: derives independent 64-bit streams from the seed argument.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform `[0, 1)` value from a 64-bit hash.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weyl_sequences_cover_the_interval_evenly() {
        for shift in [0.0, 0.37, 0.99] {
            let xs: Vec<f64> = (0..100).map(|i| weyl(shift, ALPHAS[0], i)).collect();
            assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
            for decile in 0..10 {
                let lo = f64::from(decile) / 10.0;
                let n = xs.iter().filter(|&&x| x >= lo && x < lo + 0.1).count();
                assert!((8..=12).contains(&n), "decile {decile}: {n}");
            }
        }
    }

    #[test]
    fn bounds_and_counts_follow_the_data() {
        let catalog = generate(5_000, 0.0);
        let cols = Columns::new(catalog.table("lineitem").unwrap());
        assert_eq!(cols.rows(), 5_000);
        let lo = cols.bound(0, 0.2);
        let hi = cols.bound(0, 0.8);
        assert!(lo < hi);
        let all = [f64::INFINITY; 3];
        assert_eq!(cols.count(&all), 5_000);
        let half = [cols.bound(0, 0.5), f64::INFINITY, f64::INFINITY];
        let n = cols.count(&half);
        assert!((2_000..3_000).contains(&n), "{n}");
    }
}
