//! Transfer/execution profiling and the device cost model.
//!
//! The paper measures its benchmarks with NVIDIA Nsight Systems: the number
//! of HtoD/DtoH `cudaMemcpy` calls, the bytes moved in each direction, the
//! time spent in data transfer, and overall application runtime. The
//! simulator collects the same counters ([`TransferProfile`]) and converts
//! them to wall-clock estimates through a configurable [`CostModel`] that
//! captures interconnect latency/bandwidth and host/device compute
//! throughput.

/// Counters equivalent to what `nsys` reports for an offload application.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferProfile {
    /// Number of host-to-device memcpy calls.
    pub htod_calls: u64,
    /// Number of device-to-host memcpy calls.
    pub dtoh_calls: u64,
    /// Bytes moved host-to-device.
    pub htod_bytes: u64,
    /// Bytes moved device-to-host.
    pub dtoh_bytes: u64,
    /// Number of device buffer allocations.
    pub device_allocs: u64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Abstract operations executed on the host.
    pub host_ops: u64,
    /// Abstract operations executed on the device.
    pub device_ops: u64,
    /// HtoD calls attributed to `target enter data` directives (a subset of
    /// `htod_calls`; the rest belong to structured regions and updates).
    pub enter_htod_calls: u64,
    /// Bytes attributed to `target enter data` (subset of `htod_bytes`).
    pub enter_htod_bytes: u64,
    /// DtoH calls attributed to `target exit data` (subset of `dtoh_calls`).
    pub exit_dtoh_calls: u64,
    /// Bytes attributed to `target exit data` (subset of `dtoh_bytes`).
    pub exit_dtoh_bytes: u64,
}

impl TransferProfile {
    /// Record a host-to-device transfer.
    pub fn record_htod(&mut self, bytes: u64) {
        self.htod_calls += 1;
        self.htod_bytes += bytes;
    }

    /// Record a device-to-host transfer.
    pub fn record_dtoh(&mut self, bytes: u64) {
        self.dtoh_calls += 1;
        self.dtoh_bytes += bytes;
    }

    /// Total number of memcpy calls in both directions.
    pub fn total_calls(&self) -> u64 {
        self.htod_calls + self.dtoh_calls
    }

    /// Total bytes transferred in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.htod_bytes + self.dtoh_bytes
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &TransferProfile) {
        self.htod_calls += other.htod_calls;
        self.dtoh_calls += other.dtoh_calls;
        self.htod_bytes += other.htod_bytes;
        self.dtoh_bytes += other.dtoh_bytes;
        self.device_allocs += other.device_allocs;
        self.kernel_launches += other.kernel_launches;
        self.host_ops += other.host_ops;
        self.device_ops += other.device_ops;
        self.enter_htod_calls += other.enter_htod_calls;
        self.enter_htod_bytes += other.enter_htod_bytes;
        self.exit_dtoh_calls += other.exit_dtoh_calls;
        self.exit_dtoh_bytes += other.exit_dtoh_bytes;
    }

    /// One-line nsys-style summary, used by CLI output and reports. When any
    /// transfer was attributed to an unstructured lifetime directive, the
    /// line breaks the totals out into enter/exit-data vs structured-region
    /// traffic.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} HtoD call(s) / {}, {} DtoH call(s) / {}, {} kernel launch(es)",
            self.htod_calls,
            format_bytes(self.htod_bytes),
            self.dtoh_calls,
            format_bytes(self.dtoh_bytes),
            self.kernel_launches
        );
        if self.enter_htod_calls > 0 || self.exit_dtoh_calls > 0 {
            out.push_str(&format!(
                "; enter/exit data: {} HtoD call(s) / {}, {} DtoH call(s) / {}; structured: {} HtoD call(s) / {}, {} DtoH call(s) / {}",
                self.enter_htod_calls,
                format_bytes(self.enter_htod_bytes),
                self.exit_dtoh_calls,
                format_bytes(self.exit_dtoh_bytes),
                self.htod_calls - self.enter_htod_calls,
                format_bytes(self.htod_bytes - self.enter_htod_bytes),
                self.dtoh_calls - self.exit_dtoh_calls,
                format_bytes(self.dtoh_bytes - self.exit_dtoh_bytes),
            ));
        }
        out
    }

    /// Time spent moving data under the given cost model (seconds).
    pub fn transfer_time(&self, cost: &CostModel) -> f64 {
        let latency = (self.htod_calls + self.dtoh_calls) as f64 * cost.transfer_latency_s;
        let volume = self.total_bytes() as f64 / cost.bandwidth_bytes_per_s;
        latency + volume
    }

    /// Time spent computing on the device, including launch overhead
    /// (seconds).
    pub fn device_time(&self, cost: &CostModel) -> f64 {
        self.kernel_launches as f64 * cost.kernel_launch_s
            + self.device_ops as f64 / cost.device_ops_per_s
    }

    /// Time spent computing on the host (seconds).
    pub fn host_time(&self, cost: &CostModel) -> f64 {
        self.host_ops as f64 / cost.host_ops_per_s
    }

    /// Estimated total application runtime (seconds).
    pub fn total_time(&self, cost: &CostModel) -> f64 {
        self.transfer_time(cost) + self.device_time(cost) + self.host_time(cost)
    }

    /// Speedup of this profile over `baseline` in estimated total runtime.
    pub fn speedup_over(&self, baseline: &TransferProfile, cost: &CostModel) -> f64 {
        let own = self.total_time(cost);
        if own <= 0.0 {
            return 1.0;
        }
        baseline.total_time(cost) / own
    }

    /// Improvement factor in transfer wall time over `baseline`.
    pub fn transfer_improvement_over(&self, baseline: &TransferProfile, cost: &CostModel) -> f64 {
        let own = self.transfer_time(cost);
        if own <= 0.0 {
            return f64::INFINITY;
        }
        baseline.transfer_time(cost) / own
    }
}

/// Interconnect and compute cost parameters.
///
/// Defaults approximate the paper's testbed (NVIDIA A100, PCIe 4.0 host
/// link): ~10 µs per memcpy invocation, ~20 GB/s sustained transfer
/// bandwidth, ~8 µs kernel launch overhead, and a 100× device-vs-host
/// throughput advantage for the data-parallel loops the benchmarks offload.
/// Absolute times therefore differ from the paper's hardware, but ratios
/// (speedups, transfer-time improvements) depend only weakly on the exact
/// constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed cost per memcpy call (seconds).
    pub transfer_latency_s: f64,
    /// Sustained host<->device bandwidth (bytes per second).
    pub bandwidth_bytes_per_s: f64,
    /// Fixed cost per kernel launch (seconds).
    pub kernel_launch_s: f64,
    /// Device throughput for abstract interpreter operations (ops/second).
    pub device_ops_per_s: f64,
    /// Host throughput for abstract interpreter operations (ops/second).
    pub host_ops_per_s: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            transfer_latency_s: 10e-6,
            bandwidth_bytes_per_s: 20e9,
            kernel_launch_s: 8e-6,
            device_ops_per_s: 100e9,
            host_ops_per_s: 1e9,
        }
    }
}

/// Pretty formatting of byte quantities (matches how the paper labels its
/// figures: MB/GB).
pub fn format_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2} GB", b / GB)
    } else if b >= MB {
        format!("{:.2} MB", b / MB)
    } else if b >= KB {
        format!("{:.2} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

/// Geometric mean of a sequence of positive ratios.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).sum();
    let n = values.iter().filter(|v| **v > 0.0).count();
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut p = TransferProfile::default();
        p.record_htod(1000);
        p.record_htod(500);
        p.record_dtoh(250);
        assert_eq!(p.htod_calls, 2);
        assert_eq!(p.dtoh_calls, 1);
        assert_eq!(p.total_calls(), 3);
        assert_eq!(p.total_bytes(), 1750);
        let s = p.summary();
        assert!(s.contains("2 HtoD call(s)"), "{s}");
        assert!(s.contains("1 DtoH call(s)"), "{s}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TransferProfile {
            htod_calls: 1,
            htod_bytes: 10,
            ..Default::default()
        };
        let b = TransferProfile {
            dtoh_calls: 2,
            dtoh_bytes: 20,
            kernel_launches: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total_calls(), 3);
        assert_eq!(a.total_bytes(), 30);
        assert_eq!(a.kernel_launches, 3);
    }

    #[test]
    fn time_model_is_monotone_in_bytes() {
        let cost = CostModel::default();
        let mut small = TransferProfile::default();
        small.record_htod(1 << 20);
        let mut large = TransferProfile::default();
        large.record_htod(1 << 30);
        assert!(large.transfer_time(&cost) > small.transfer_time(&cost));
    }

    #[test]
    fn speedup_reflects_reduced_transfers() {
        let cost = CostModel::default();
        let mut unopt = TransferProfile {
            host_ops: 1_000,
            device_ops: 1_000_000,
            kernel_launches: 100,
            ..Default::default()
        };
        for _ in 0..200 {
            unopt.record_htod(8 << 20);
            unopt.record_dtoh(8 << 20);
        }
        let mut opt = TransferProfile {
            host_ops: 1_000,
            device_ops: 1_000_000,
            kernel_launches: 100,
            ..Default::default()
        };
        opt.record_htod(8 << 20);
        opt.record_dtoh(8 << 20);
        let s = opt.speedup_over(&unopt, &cost);
        assert!(s > 10.0, "expected large speedup, got {s}");
        assert!(opt.transfer_improvement_over(&unopt, &cost) > 100.0);
    }

    #[test]
    fn summary_breaks_out_lifetime_traffic() {
        let mut p = TransferProfile::default();
        p.record_htod(1000);
        p.record_htod(500);
        p.record_dtoh(250);
        // Without lifetime attribution the summary stays the classic one-liner.
        assert!(!p.summary().contains("enter/exit data"), "{}", p.summary());
        p.enter_htod_calls = 1;
        p.enter_htod_bytes = 1000;
        p.exit_dtoh_calls = 1;
        p.exit_dtoh_bytes = 250;
        let s = p.summary();
        assert!(
            s.contains("enter/exit data: 1 HtoD call(s) / 1000 B, 1 DtoH call(s) / 250 B"),
            "{s}"
        );
        assert!(
            s.contains("structured: 1 HtoD call(s) / 500 B, 0 DtoH call(s) / 0 B"),
            "{s}"
        );
        // merge() accumulates the attributed sub-counters too.
        let mut other = TransferProfile::default();
        other.merge(&p);
        assert_eq!(other.enter_htod_bytes, 1000);
        assert_eq!(other.exit_dtoh_calls, 1);
    }

    #[test]
    fn geometric_mean_matches_manual() {
        let g = geometric_mean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KB");
        assert!(format_bytes(5 * 1024 * 1024).ends_with("MB"));
        assert!(format_bytes(3 * 1024 * 1024 * 1024).ends_with("GB"));
    }

    #[test]
    fn cost_model_variants() {
        let slow = CostModel::default();
        // An NVLink-class interconnect.
        let fast = CostModel {
            bandwidth_bytes_per_s: 60e9,
            transfer_latency_s: 5e-6,
            ..Default::default()
        };
        assert!(slow.bandwidth_bytes_per_s < fast.bandwidth_bytes_per_s);
        let mut p = TransferProfile::default();
        p.record_htod(1 << 30);
        assert!(p.transfer_time(&slow) > p.transfer_time(&fast));
    }
}
