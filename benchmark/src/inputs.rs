//! Inputs, made from the seed: the same seed gives the same datasets,
//! the same request lines in the same order, and the same shuffles. The
//! programs under test receive only what is generated here.

use sgd_datagen::{generate, libsvm, Dataset, DatasetProfile, GenOptions};
use sgd_linalg::Matrix;
use sgd_models::{Batch, Examples};

/// SplitMix64: the benchmark's own seeded stream (request order, model
/// perturbations), independent of the generators inside the crates.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One generated dataset in the representation its workload trains on:
/// dense for covtype (the paper pairs it with the dense kernels), CSR
/// for the text-like profiles.
pub struct LinearData {
    pub ds: Dataset,
    pub dense: Option<Matrix>,
}

impl LinearData {
    pub fn generate(profile: &DatasetProfile, scale: f64, seed: u64) -> Self {
        let ds = generate(profile, &GenOptions { seed, scale, ..Default::default() });
        let dense = profile.dense.then(|| ds.x.to_dense());
        LinearData { ds, dense }
    }

    pub fn batch(&self) -> Batch<'_> {
        match &self.dense {
            Some(m) => Batch::new(Examples::Dense(m), &self.ds.y),
            None => Batch::new(Examples::Sparse(&self.ds.x), &self.ds.y),
        }
    }

    pub fn n(&self) -> usize {
        self.ds.n()
    }

    pub fn d(&self) -> usize {
        self.ds.d()
    }
}

/// `count` LIBSVM request lines (no trailing newline), rows of `ds`
/// drawn with replacement from the seeded stream.
pub fn request_lines(ds: &Dataset, count: usize, seed: u64) -> Vec<String> {
    let text = libsvm::to_string(ds);
    let rows: Vec<&str> = text.lines().collect();
    let mut rng = SplitMix64(seed ^ 0x7265_7175_6573_7473);
    (0..count).map(|_| rows[rng.below(rows.len())].to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = LinearData::generate(&DatasetProfile::w8a(), 0.01, 7);
        let b = LinearData::generate(&DatasetProfile::w8a(), 0.01, 7);
        let c = LinearData::generate(&DatasetProfile::w8a(), 0.01, 8);
        assert_eq!(request_lines(&a.ds, 16, 7), request_lines(&b.ds, 16, 7));
        assert_ne!(request_lines(&a.ds, 16, 7), request_lines(&c.ds, 16, 8));
        assert!(a.dense.is_none());
        assert!(LinearData::generate(&DatasetProfile::covtype(), 0.001, 1).dense.is_some());
    }

    #[test]
    fn request_lines_parse_back_to_one_row_each() {
        let data = LinearData::generate(&DatasetProfile::w8a(), 0.01, 3);
        for line in request_lines(&data.ds, 8, 3) {
            assert!(!line.contains('\n'));
            let parsed = libsvm::parse_str("req", &line, data.d()).expect("valid LIBSVM");
            assert_eq!(parsed.x.rows(), 1);
        }
    }
}
