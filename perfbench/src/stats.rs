//! Order statistics over measured samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            #[allow(clippy::cast_precision_loss)]
            let pos = q * (n - 1) as f64;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            #[allow(clippy::cast_precision_loss)]
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median of unsorted samples (NaN when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Windows a run is cut into for [`windowed_rate`].
pub const WINDOWS: usize = 15;
/// Windows a run is cut into for [`windowed_tail`]: fewer, so that every
/// workload has enough samples per window for a high percentile.
pub const TAIL_WINDOWS: usize = 10;

/// Index of the window, out of `n`, that completion time `end` (s since
/// the start) falls in.
fn window(end: f64, elapsed: f64, n: usize) -> usize {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let k = (end / elapsed * n as f64) as usize;
    k.min(n - 1)
}

/// Completions per second, as the median over [`WINDOWS`] equal windows
/// of the run (`ends`: completion times in s since the start; `elapsed`:
/// the run's length in s). A stall of the machine that hits a few windows
/// does not move it.
#[must_use]
pub fn windowed_rate(ends: &[f64], elapsed: f64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let width = elapsed / WINDOWS as f64;
    let mut counts = [0u32; WINDOWS];
    for &e in ends {
        counts[window(e, elapsed, WINDOWS)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| f64::from(c) / width).collect();
    median(&rates)
}

/// The tail of a latency sample.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The percentile, e.g. 99.
    pub percentile: f64,
    /// Its value: the median over the windows of the run.
    pub value: f64,
    /// Samples beyond it in a window of average size.
    pub beyond: usize,
}

/// Percentiles the tail may be read at, highest first. Coarse on purpose:
/// a workload's window size stays inside one rung from run to run, so its
/// tail is always read at the same percentile.
const LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// The tail of `lat` (latencies, with their completion times `ends`):
/// the highest percentile of the ladder that leaves at least ten samples
/// beyond it in a window of average size, taken in each of the
/// [`TAIL_WINDOWS`] windows of the run. The median over the windows is
/// reported, so a stall of the machine in one or two windows does not
/// move it.
#[must_use]
pub fn windowed_tail(lat: &[f64], ends: &[f64], elapsed: f64) -> Option<Tail> {
    let per_window = lat.len() / TAIL_WINDOWS;
    let (percentile, beyond) = LADDER.iter().find_map(|&p| {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let beyond = ((1.0 - p / 100.0) * per_window as f64).floor() as usize;
        (beyond >= 10).then_some((p, beyond))
    })?;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); TAIL_WINDOWS];
    for (&l, &e) in lat.iter().zip(ends) {
        windows[window(e, elapsed, TAIL_WINDOWS)].push(l);
    }
    let tails: Vec<f64> = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_by(f64::total_cmp);
            quantile_sorted(w, percentile / 100.0)
        })
        .collect();
    Some(Tail {
        percentile,
        value: median(&tails),
        beyond,
    })
}
