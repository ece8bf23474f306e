//! Order statistics, the output digest, and `/proc` readers.

use std::path::Path;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of quantile `q` in `(0, 1)` of `values` (0 when
/// empty): a weighted mean of every order statistic, with the weights of a
/// Beta(q(n+1), (1−q)(n+1)) distribution over the ranks. A tail quantile
/// of a hundred campaigns then rests on the dozen around its rank rather
/// than on the one or two at it, which makes it far steadier from run to
/// run than [`quantile`].
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return values.first().copied().unwrap_or(0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    // Log of the Beta density up to a constant; the weights are normalised
    // below, so the constant is never needed.
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let mode = ((a - 1.0) / (a + b - 2.0)).clamp(1e-9, 1.0 - 1e-9);
    let peak = log_density(mode);
    // Midpoint rule, 32 steps per rank interval.
    const STEPS: usize = 32;
    let h = 1.0 / (n * STEPS) as f64;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            (0..STEPS)
                .map(|k| (log_density(((i * STEPS + k) as f64 + 0.5) * h) - peak).exp())
                .sum::<f64>()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    // Ranks whose weight underflowed to 0 are skipped, so an infinite
    // value (a campaign that never completed) far from `q` cannot turn
    // the estimate into NaN.
    v.iter()
        .zip(&weights)
        .filter(|(_, w)| **w > 0.0)
        .map(|(x, w)| x * w)
        .sum::<f64>()
        / total
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `setup_s` from a run's set-up times, in the order they were taken: the
/// times are dealt in turn into three groups, so each group spans the
/// whole run, and the result is the median of the three groups' fastest
/// times. A shared machine slows everything for stretches of seconds,
/// and which stretches a run meets varies from run to run; the fastest
/// time of a group spread over the run reads the machine outside such
/// stretches. For `trm_table1`'s sub-millisecond set-up the quartile
/// spread over ten runs was 13% this way against 51% for the median of
/// all times.
pub fn setup_time(samples: &[f64]) -> f64 {
    const GROUPS: usize = 3;
    let fastest: Vec<f64> = (0..GROUPS.min(samples.len()))
        .map(|g| {
            samples
                .iter()
                .skip(g)
                .step_by(GROUPS)
                .fold(f64::INFINITY, |a, b| a.min(*b))
        })
        .collect();
    median(&fastest)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so `--repeat` reports the same
/// spread a Python check of the same values computes. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = 4usize;
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// FNV-1a 64 over a byte stream: the outputs' digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one 64-bit word (little-endian bytes).
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (the value
/// Linux uses on every mainstream architecture).
const CLK_TCK: f64 = 100.0;

/// A `/proc/<pid>/status` field in kB (`VmHWM`, `VmRSS`, ...), 0 if absent.
pub fn status_kb(pid: u32, field: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmHWM") / 1024.0
}

/// User plus system CPU seconds of a process: its own, and with
/// `children` also that of its waited-for children.
pub fn cpu_seconds(pid: u32, children: bool) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<f64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    // utime, stime, cutime, cstime are fields 14..=17 of the full line,
    // i.e. 11..=14 after the state field that follows the name.
    let get = |i: usize| fields.get(i).copied().unwrap_or(0.0);
    let own = get(11) + get(12);
    let reaped = if children { get(13) + get(14) } else { 0.0 };
    (own + reaped) / CLK_TCK
}

/// `(write syscalls, bytes written to storage)` from `/proc/<pid>/io`.
pub fn io_writes(pid: u32) -> (f64, f64) {
    let text = std::fs::read_to_string(format!("/proc/{pid}/io")).unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    (field("syscw"), field("write_bytes"))
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len() as f64).unwrap_or(0.0),
            Err(_) => 0.0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn harrell_davis_is_symmetric_and_smooth() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 50.0).abs() < 1e-9);
        let p90 = hd_quantile(&v, 0.9);
        assert!((p90 - 90.0).abs() < 0.5, "{p90}");
        // Moving one value near the rank moves the estimate by a fraction.
        let mut w = v.clone();
        w[89] += 10.0;
        assert!(hd_quantile(&w, 0.9) - p90 < 2.0);
        assert_eq!(hd_quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn setup_time_is_the_median_of_interleaved_minima() {
        // Groups {5, 1, 9}, {2, 7}, {8, 3}: minima 1, 2, 3.
        assert_eq!(setup_time(&[5.0, 2.0, 8.0, 1.0, 7.0, 3.0, 9.0]), 2.0);
        assert_eq!(setup_time(&[4.0]), 4.0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
