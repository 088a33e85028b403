//! CPU hardware parameters.

/// Static description of a modeled multicore (NUMA) CPU machine.
///
/// The default preset is the paper's machine (Fig. 5): two 14-core
/// Xeon E5-2660 v4 sockets, 2-way SMT, 56 hardware threads.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    /// Machine name.
    pub name: &'static str,
    /// NUMA sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads per core (SMT).
    pub smt: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Double-precision FLOPs per core per cycle (AVX2 FMA: 2 x 4 x 2).
    pub flops_per_core_cycle: f64,
    /// Streaming bandwidth one core can sustain, GB/s.
    pub stream_bw_core_gbps: f64,
    /// Streaming bandwidth one socket can sustain, GB/s.
    pub stream_bw_socket_gbps: f64,
    /// Effective cost of one random (uncached) cache-line access per core,
    /// in nanoseconds, after memory-level parallelism.
    pub random_line_ns: f64,
    /// L1 data cache per core, bytes.
    pub l1_bytes: usize,
    /// L2 cache per core, bytes.
    pub l2_bytes: usize,
    /// L3 cache per socket, bytes.
    pub l3_bytes: usize,
    /// Cache line size, bytes.
    pub cacheline: usize,
    /// Serialized cost of one coherency invalidation (a write to a line
    /// another core holds), nanoseconds.
    pub coherency_inval_ns: f64,
    /// Fork/join overhead of one parallel region, seconds.
    pub fork_join_secs: f64,
    /// Throughput contribution of the second SMT thread on a core
    /// (0.0 – 1.0).
    pub smt_yield: f64,
    /// Scaled-simulation knob: when experiments run on datasets scaled to
    /// a fraction of their published size, cache capacities are scaled by
    /// the same fraction **for data-tier decisions only**, so that "does
    /// the training data fit in cache" is answered as it would be at full
    /// scale. Model-sized structures (whose dimensionality does not
    /// scale) always see the full capacities.
    pub cache_scale: f64,
}

impl CpuSpec {
    /// The paper's machine: dual-socket Xeon E5-2660 v4 (2 x 14 cores x 2
    /// threads, 2.0 GHz, 35 MB L3 per socket, 256 GB RAM).
    pub fn xeon_e5_2660_v4_dual() -> Self {
        CpuSpec {
            name: "2x Xeon E5-2660 v4 (56 threads)",
            sockets: 2,
            cores_per_socket: 14,
            smt: 2,
            clock_ghz: 2.0,
            flops_per_core_cycle: 16.0,
            stream_bw_core_gbps: 12.0,
            stream_bw_socket_gbps: 65.0,
            random_line_ns: 8.0,
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            l3_bytes: 35 * 1024 * 1024,
            cacheline: 64,
            coherency_inval_ns: 20.0,
            fork_join_secs: 8e-6,
            smt_yield: 0.3,
            cache_scale: 1.0,
        }
    }

    /// Returns a copy with fixed costs and data-tier cache capacities
    /// scaled by `f` (see [`CpuSpec::cache_scale`]); bandwidths and
    /// latencies are physical properties and do not scale.
    pub fn scaled(&self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "scale must be in (0, 1]");
        let mut s = self.clone();
        s.cache_scale = self.cache_scale * f;
        s.fork_join_secs = self.fork_join_secs * f;
        s
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total hardware threads (the paper's "56").
    pub fn total_threads(&self) -> usize {
        self.total_cores() * self.smt
    }

    /// Effective core-equivalents delivered by `threads` hardware threads
    /// (SMT threads beyond the physical cores contribute `smt_yield`).
    pub fn effective_cores(&self, threads: usize) -> f64 {
        let threads = threads.clamp(1, self.total_threads());
        let physical = threads.min(self.total_cores());
        let smt_extra = threads.saturating_sub(self.total_cores());
        physical as f64 + smt_extra as f64 * self.smt_yield
    }

    /// Peak double-precision FLOPs/s of `threads` hardware threads.
    pub fn peak_flops(&self, threads: usize) -> f64 {
        self.effective_cores(threads) * self.flops_per_core_cycle * self.clock_ghz * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_counts() {
        let s = CpuSpec::xeon_e5_2660_v4_dual();
        assert_eq!(s.total_cores(), 28);
        assert_eq!(s.total_threads(), 56);
    }

    #[test]
    fn effective_cores_saturate() {
        let s = CpuSpec::xeon_e5_2660_v4_dual();
        assert_eq!(s.effective_cores(1), 1.0);
        assert_eq!(s.effective_cores(28), 28.0);
        assert!((s.effective_cores(56) - (28.0 + 28.0 * 0.3)).abs() < 1e-12);
        // Clamped beyond the machine.
        assert_eq!(s.effective_cores(100), s.effective_cores(56));
        assert_eq!(s.effective_cores(0), 1.0);
    }

    #[test]
    fn peak_flops_scales_with_cores() {
        let s = CpuSpec::xeon_e5_2660_v4_dual();
        // One core at 2 GHz with 16 flops/cycle = 32 GFLOPs.
        assert!((s.peak_flops(1) - 32e9).abs() < 1e3);
        assert!(s.peak_flops(56) > 20.0 * s.peak_flops(1));
    }
}
