//! Color–density decoupling (§4.3): rendering approximation based on
//! color-wise locality.
//!
//! For a ray with `N` sample points and group size `n`, the color MLP runs
//! only for the leader of each group (points `0, n, 2n, …`); follower colors
//! are linearly interpolated between the two surrounding leaders using the
//! sample-point distances. Density is still computed for *every* point — the
//! compositing weights stay exact, only the color term is approximated.

use asdr_math::Rgb;

/// Indices of the group leaders for `n_points` samples with group size `n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn leader_indices(n_points: usize, n: usize) -> Vec<usize> {
    assert!(n > 0, "group size must be positive");
    (0..n_points).step_by(n).collect()
}

/// Fills follower colors by linear interpolation between leaders.
///
/// `ts` are the sample distances, `colors[leader]` must already hold the
/// computed leader colors, and `is_leader` marks them. Followers after the
/// last leader hold its color.
///
/// # Panics
///
/// Panics if slice lengths disagree or no leader is marked.
pub fn interpolate_followers(ts: &[f32], colors: &mut [Rgb], is_leader: &[bool]) {
    assert_eq!(ts.len(), colors.len(), "ts/colors length mismatch");
    assert_eq!(ts.len(), is_leader.len(), "ts/is_leader length mismatch");
    if ts.is_empty() {
        return;
    }
    let n = ts.len();
    let next_leader = |from: usize| (from..n).find(|&j| is_leader[j]);
    // the bracketing pair: `lo` is the last leader before the follower (the
    // first leader, for followers ahead of it), `hi` the leader after `lo`
    let mut lo = next_leader(0).expect("need at least one leader");
    let mut hi = next_leader(lo + 1);
    for i in 0..n {
        if is_leader[i] {
            continue;
        }
        while let Some(h) = hi.filter(|&h| h < i) {
            lo = h;
            hi = next_leader(h + 1);
        }
        colors[i] = match hi {
            Some(hi) => {
                let span = (ts[hi] - ts[lo]).max(1e-12);
                let w = ((ts[i] - ts[lo]) / span).clamp(0.0, 1.0);
                colors[lo].lerp(colors[hi], w)
            }
            // past the last leader: hold
            None => colors[lo],
        };
    }
}

/// FLOP reduction factor of the color stage for group size `n` (the color
/// MLP runs `1/n` as often; the interpolation itself is a few MACs).
pub fn color_exec_fraction(n: usize) -> f64 {
    assert!(n > 0);
    1.0 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaders_every_n() {
        assert_eq!(leader_indices(8, 2), vec![0, 2, 4, 6]);
        assert_eq!(leader_indices(7, 3), vec![0, 3, 6]);
        assert_eq!(leader_indices(5, 1), vec![0, 1, 2, 3, 4]);
        assert_eq!(leader_indices(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn interpolation_is_exact_for_linear_color_ramp() {
        let n = 9;
        let ts: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let truth: Vec<Rgb> = (0..n).map(|i| Rgb::splat(i as f32 / (n - 1) as f32)).collect();
        let mut colors = vec![Rgb::BLACK; n];
        let mut is_leader = vec![false; n];
        for &l in &leader_indices(n, 4) {
            is_leader[l] = true;
            colors[l] = truth[l];
        }
        interpolate_followers(&ts, &mut colors, &is_leader);
        for (c, t) in colors.iter().zip(&truth) {
            assert!(c.max_channel_abs_diff(*t) < 1e-6, "{c} vs {t}");
        }
    }

    #[test]
    fn tail_followers_hold_last_leader() {
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut colors = [Rgb::BLACK; 5];
        let is_leader = [true, false, false, true, false];
        colors[0] = Rgb::WHITE;
        colors[3] = Rgb::new(0.5, 0.0, 0.0);
        interpolate_followers(&ts, &mut colors, &is_leader);
        assert_eq!(colors[4], colors[3], "tail must hold last leader");
        // midpoint check: index 1 is 1/3 of the way from leader 0 to 3
        assert!((colors[1].r - (1.0 + (0.5 - 1.0) / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn leaders_are_untouched() {
        let ts = [0.0, 0.5, 1.0];
        let mut colors = [Rgb::new(0.9, 0.1, 0.2), Rgb::BLACK, Rgb::new(0.2, 0.8, 0.4)];
        let is_leader = [true, false, true];
        let before = (colors[0], colors[2]);
        interpolate_followers(&ts, &mut colors, &is_leader);
        assert_eq!(colors[0], before.0);
        assert_eq!(colors[2], before.1);
    }

    #[test]
    fn n_equals_one_means_no_approximation() {
        assert_eq!(color_exec_fraction(1), 1.0);
        assert_eq!(color_exec_fraction(2), 0.5);
        assert_eq!(color_exec_fraction(4), 0.25);
    }

    #[test]
    #[should_panic]
    fn no_leader_panics() {
        let ts = [0.0, 1.0];
        let mut colors = [Rgb::BLACK; 2];
        interpolate_followers(&ts, &mut colors, &[false, false]);
    }
}
