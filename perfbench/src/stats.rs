//! Seed derivation and the estimators every workload shares.

use crate::data::Slo;

/// splitmix64: derives independent sub-seeds from the run's `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sub-seed for one named input stream of a run.
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    stream
        .bytes()
        .fold(splitmix64(seed), |h, b| splitmix64(h ^ u64::from(b)))
}

/// A seeded value in `0..n`.
pub fn pick(seed: u64, stream: &str, n: u64) -> u64 {
    sub_seed(seed, stream) % n.max(1)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut h = seed;
    for i in (1..xs.len()).rev() {
        h = splitmix64(h);
        xs.swap(i, (h % (i as u64 + 1)) as usize);
    }
}

/// `n` slots spread over the weights exactly (largest remainder), in a
/// seeded order: the mix is fixed, only the order depends on the seed.
pub fn stratified(weights: &[usize], n: usize, seed: u64) -> Vec<usize> {
    let total: usize = weights.iter().sum();
    let mut counts: Vec<usize> = weights.iter().map(|w| n * w / total).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse((n * weights[i]) % total));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    shuffle(&mut out, seed);
    out
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Percentile `p` of unsorted samples, by the serving stack's
/// nearest-rank rule.
pub fn percentile(xs: &[f64], p: u64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    memconv_serve::percentile(&s, p)
}

/// The host-time estimator: every pass runs the same items in the same
/// order, so `times[pass][item]` is comparable down a column. The estimate
/// of one pass is the sum over items of each item's fastest time, which
/// discards the seconds-long slow episodes of a shared host.
pub fn fastest_pass_s(times: &[Vec<f64>]) -> f64 {
    let Some(first) = times.first() else {
        return 0.0;
    };
    (0..first.len())
        .map(|i| {
            times
                .iter()
                .map(|pass| pass[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// [`fastest_pass_s`] for items that repeat the same host work: items of
/// one `class` (for example inferences of one model on same-shaped inputs)
/// share their fastest time across every pass and every such item.
pub fn fastest_pass_by_class_s(times: &[Vec<f64>], class: &[usize]) -> f64 {
    let classes = class.iter().max().map_or(0, |&c| c + 1);
    let mut best = vec![f64::INFINITY; classes];
    for pass in times {
        for (t, &c) in pass.iter().zip(class) {
            best[c] = best[c].min(*t);
        }
    }
    class.iter().map(|&c| best[c]).sum()
}

/// Share of `arrivals` items that finish within `limit_s` when they arrive
/// every `1/rate` virtual seconds at one device that serves them in order,
/// item `k` taking `service_s[k % len]`.
pub fn fifo_share_within(service_s: &[f64], rate: f64, arrivals: usize, limit_s: f64) -> f64 {
    if service_s.is_empty() || arrivals == 0 {
        return 0.0;
    }
    let mut free_at = 0.0f64;
    let mut met = 0usize;
    for k in 0..arrivals {
        let arrival = k as f64 / rate;
        free_at = free_at.max(arrival) + service_s[k % service_s.len()];
        if free_at - arrival <= limit_s {
            met += 1;
        }
    }
    met as f64 / arrivals as f64
}

/// The highest SLO rate whose measured share meets the objective (0 when
/// none does).
pub fn slo_rate(slo: &Slo, mut share_at: impl FnMut(f64) -> f64) -> f64 {
    let mut best = 0.0f64;
    for &rate in slo.rates_per_s {
        let share = share_at(rate);
        eprintln!("slo: {rate} req/s -> {share:.4} within {} ms", slo.limit_ms);
        if share >= slo.share {
            best = best.max(rate);
        }
    }
    best
}

/// Peak resident set of this process in MB (`VmHWM`), Linux only.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_mix_is_exact_and_seed_ordered() {
        let a = stratified(&[3, 1], 8, 1);
        assert_eq!(a.iter().filter(|&&i| i == 0).count(), 6);
        assert_eq!(a.len(), 8);
        let b = stratified(&[3, 1], 8, 2);
        assert_eq!(b.iter().filter(|&&i| i == 0).count(), 6);
        assert_eq!(stratified(&[1, 1, 1], 10, 5).len(), 10);
    }

    #[test]
    fn fastest_pass_takes_the_per_item_minimum() {
        let t = vec![vec![1.0, 5.0], vec![2.0, 3.0]];
        assert_eq!(fastest_pass_s(&t), 4.0);
    }

    #[test]
    fn fastest_pass_by_class_shares_the_minimum_within_a_class() {
        // Items 0 and 2 repeat the same work: both take its fastest time.
        let t = vec![vec![4.0, 5.0, 3.0], vec![2.0, 6.0, 7.0]];
        assert_eq!(fastest_pass_by_class_s(&t, &[0, 1, 0]), 2.0 + 5.0 + 2.0);
    }

    #[test]
    fn fifo_queue_meets_limit_only_below_capacity() {
        // 1 ms service: 500/s never queues, 2000/s builds a backlog.
        assert_eq!(fifo_share_within(&[1e-3], 500.0, 100, 2e-3), 1.0);
        assert!(fifo_share_within(&[1e-3], 2000.0, 100, 2e-3) < 0.1);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
