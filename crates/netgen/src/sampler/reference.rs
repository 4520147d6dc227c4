//! The thinning [`poisson_select`] ran before its rounds remembered their
//! blockers, used only by tests: a fresh [`greedy_thin`] per bisection
//! round, then a trim whose nearest-neighbour searches walk a `BTreeMap`
//! [`SpatialGrid`]; and the `BTreeMap` grid [`greedy_thin`] searched
//! before its flat grid. The tests below pin [`poisson_select`] and
//! [`Thinning`]'s rounds to them bit for bit; the sampler's own tests pin
//! [`greedy_thin`] to [`reference_thin`] over [`thin_cases`].

use std::collections::{BTreeMap, BTreeSet};

use ballfit_geom::sdf::SphereSdf;
use ballfit_rng::{Rng, StdRng};

use super::*;
use crate::builder::NetworkBuilder;
use crate::scenario::Scenario;

/// [`poisson_select`] with one fresh [`greedy_thin`] per round and the
/// map-grid trim.
fn reference_select(pool: &[Vec3], target: usize) -> (Vec<Vec3>, f64) {
    let bounds = ballfit_geom::Aabb::from_points(pool).expect("non-empty pool");
    let mut lo = 0.0f64;
    let mut hi = bounds.extent().norm().max(1e-6);
    let mut best: Option<(Vec<usize>, f64)> = None;
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let kept = greedy_thin(pool, mid);
        if kept.len() >= target {
            lo = mid;
            best = Some((kept, mid));
        } else {
            hi = mid;
        }
    }
    let (kept, spacing) = best.unwrap_or_else(|| ((0..pool.len()).collect(), 0.0));
    let points: Vec<Vec3> = kept.into_iter().map(|i| pool[i]).collect();
    if points.len() == target {
        return (points, spacing);
    }
    let grid = SpatialGrid::build(&points, spacing.max(1e-9));
    let mut nn: Vec<(f64, usize)> = (0..points.len())
        .map(|i| {
            let mut radius = spacing.max(1e-9) * 2.0;
            loop {
                let near = grid.neighbors_within(&points, i, radius);
                if let Some(d) = near
                    .iter()
                    .map(|&j| points[i].distance_squared(points[j]))
                    .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.min(d))))
                {
                    return (d, i);
                }
                radius *= 2.0;
            }
        })
        .collect();
    nn.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let drop: BTreeSet<usize> = nn.iter().take(points.len() - target).map(|&(_, i)| i).collect();
    let trimmed: Vec<Vec3> =
        points.iter().enumerate().filter(|(i, _)| !drop.contains(i)).map(|(_, &p)| p).collect();
    (trimmed, spacing)
}

/// [`greedy_thin`] over a `BTreeMap` of cells, with the library `floor`.
pub(super) fn reference_thin(pool: &[Vec3], spacing: f64) -> Vec<usize> {
    // Exact sentinel, as in `greedy_thin`.
    // ballfit-lint: allow(float-safety)
    if spacing == 0.0 {
        return (0..pool.len()).collect();
    }
    let key = |p: Vec3| -> (i64, i64, i64) {
        (
            (p.x / spacing).floor() as i64,
            (p.y / spacing).floor() as i64,
            (p.z / spacing).floor() as i64,
        )
    };
    let mut grid: BTreeMap<(i64, i64, i64), Vec<usize>> = BTreeMap::new();
    let s2 = spacing * spacing;
    let mut kept = Vec::new();
    'pool: for (i, &p) in pool.iter().enumerate() {
        let (cx, cy, cz) = key(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    if let Some(bucket) = grid.get(&(cx + dx, cy + dy, cz + dz)) {
                        if bucket.iter().any(|&j| pool[j].distance_squared(p) < s2) {
                            continue 'pool;
                        }
                    }
                }
            }
        }
        grid.entry((cx, cy, cz)).or_default().push(i);
        kept.push(i);
    }
    kept
}

/// Requires [`poisson_select`] to return the reference's points and
/// spacing bit for bit; returns how many points the reference's trim
/// dropped.
fn assert_selects_like_the_reference(name: &str, pool: &[Vec3], target: usize) -> usize {
    let (want, want_spacing) = reference_select(pool, target);
    let (got, spacing) = poisson_select(pool, target);
    assert_eq!(spacing.to_bits(), want_spacing.to_bits(), "{name} → {target}: spacing");
    let bits = |points: &[Vec3]| -> Vec<[u64; 3]> {
        points.iter().map(|p| [p.x, p.y, p.z].map(f64::to_bits)).collect()
    };
    assert!(bits(&got) == bits(&want), "{name} → {target}: points differ");
    greedy_thin(pool, want_spacing).len().max(target) - target
}

fn uniform_box(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vec3::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi), rng.gen_range(lo..hi)))
        .collect()
}

/// Points 0.9 and 0.8 apart in turn along a line: thinned at 0.85 every
/// second point blocks the next; at 0.95 that blocker is itself blocked,
/// and the point after it is kept.
fn chain() -> Vec<Vec3> {
    (0..60).map(|k| Vec3::new(0.85 * k as f64 + 0.05 * (k % 2) as f64, 0.0, 0.0)).collect()
}

/// Seeded pools that stress the thinning grid's keys and bounds, each
/// with the spacings to thin it at.
pub(super) fn thin_cases() -> Vec<(&'static str, Vec<Vec3>, Vec<f64>)> {
    let ball = sample_interior(
        &SphereSdf::new(Vec3::ZERO, 2.0),
        3000,
        0.0,
        &mut StdRng::seed_from_u64(70),
    )
    .unwrap();
    let mut coincident = uniform_box(150, 71, -1.0, 1.0);
    for i in 0..150 {
        coincident.push(coincident[i]);
        coincident.push(coincident[(i * 7) % 150]);
    }
    // Lattice points on exact multiples of the spacing, some nudged by
    // one ulp either way: keys on cell boundaries and pair distances
    // equal to the spacing, which the strict test must keep apart.
    let step = 0.25;
    let mut lattice = Vec::new();
    let mut rng = StdRng::seed_from_u64(72);
    for x in -4..4 {
        for y in -4..4 {
            for z in -4..4 {
                let nudge = |c: f64, r: u32| match r {
                    0 => c.next_down(),
                    1 => c.next_up(),
                    _ => c,
                };
                let c = [x, y, z].map(|k| k as f64 * step);
                lattice.push(Vec3::new(
                    nudge(c[0], rng.gen_range(0..4)),
                    nudge(c[1], rng.gen_range(0..4)),
                    nudge(c[2], rng.gen_range(0..4)),
                ));
            }
        }
    }
    let negative = uniform_box(800, 73, -10.0, -7.0);
    let tiny = uniform_box(300, 74, 0.0, 1.0);
    // Far-apart clusters and a sparse line: their key boxes at these
    // spacings hold far more cells than the pools have points.
    let mut clusters = Vec::new();
    for (k, offset) in [0.0, 1e5, -3e6].into_iter().enumerate() {
        let shift = Vec3::new(offset, -0.5 * offset, 0.25 * offset);
        clusters.extend(uniform_box(200, 75 + k as u64, 0.0, 1.0).into_iter().map(|p| p + shift));
    }
    let line: Vec<Vec3> = (0..400)
        .map(|i| Vec3::new(i as f64 * 0.37 + 1e4 * (i % 3) as f64, 0.1 * (i % 5) as f64, 0.0))
        .collect();
    vec![
        ("a chain whose blockers drop out", chain(), vec![0.85, 0.95]),
        ("uniform ball", ball, vec![0.05, 0.2, 0.5, 1.3]),
        ("coincident points", coincident, vec![1e-9, 0.1, 0.4]),
        ("exact multiples of the spacing", lattice, vec![step, 2.0 * step, 0.5 * step]),
        ("negative coordinates", negative, vec![0.1, 0.35, 1.0]),
        ("spacing above the extent", tiny, vec![2.0, 50.0]),
        ("key box dwarfs the pool", clusters, vec![0.05, 0.2]),
        ("sparse line", line, vec![0.3, 0.5, 1.0]),
    ]
}

/// Every round of one [`Thinning`] keeps [`greedy_thin`]'s points, at
/// spacings that shrink, grow and repeat, so blockers are retried after
/// they moved out of reach, out of their key range or out of the kept
/// set.
#[test]
fn thinning_rounds_match_a_fresh_greedy_thin() {
    for (name, pool, spacings) in thin_cases() {
        let mut thinning = Thinning::new(&pool);
        let widest = spacings.iter().copied().fold(0.0, f64::max);
        let narrowest = spacings.iter().copied().fold(f64::INFINITY, f64::min);
        let mut schedule = vec![widest, narrowest, widest];
        for s in spacings {
            schedule.extend([s, s * 1.01, s * 0.93, s, s * 1.5, s * 0.5]);
        }
        for s in schedule {
            assert_eq!(thinning.round(s), reference_thin(&pool, s), "{name} at spacing {s}");
        }
    }
}

/// The networks every experiment and benchmark starts from: the paper
/// gallery at seed 42 and `serve-churn`'s tenants (twelve at network
/// seeds 100 + i, two at 1,100 + k), both pools each.
#[test]
fn poisson_select_matches_the_reference_on_generated_pools() {
    let mut builds = Vec::new();
    for scenario in Scenario::PAPER_GALLERY {
        let (surface, interior) =
            if scenario == Scenario::BendedPipe { (500, 800) } else { (700, 1200) };
        builds.push((scenario, surface, interior, 42));
    }
    for i in 0..12 {
        builds.push((Scenario::ALL[i % Scenario::ALL.len()], 80, 120, 100 + i as u64));
    }
    for k in 0..2 {
        builds.push((Scenario::ALL[k], 80, 120, 1_100 + k as u64));
    }
    let mut trimmed = 0;
    for (scenario, surface, interior, seed) in builds {
        let builder = NetworkBuilder::new(scenario)
            .surface_nodes(surface)
            .interior_nodes(interior)
            .seed(seed);
        let [surface_pool, interior_pool] = builder.pools();
        for (pool, target) in [(surface_pool, surface), (interior_pool, interior)] {
            let name = format!("{scenario} seed {seed}");
            trimmed += usize::from(assert_selects_like_the_reference(&name, &pool, target) > 0);
        }
    }
    assert!(trimmed > 0, "no generated pool runs the trim");
}

/// Adversarial pools: duplicates, keys on cell boundaries whose quotients
/// round, coordinates near 10⁹, trims of many points and a target equal
/// to the pool.
#[test]
fn poisson_select_matches_the_reference_on_adversarial_pools() {
    let ball =
        sample_interior(&SphereSdf::new(Vec3::ZERO, 2.0), 4000, 0.0, &mut StdRng::seed_from_u64(8))
            .unwrap();
    // Duplicates: some points twice, some three times.
    let mut duplicates = uniform_box(400, 80, -1.0, 1.0);
    for i in 0..300 {
        duplicates.push(duplicates[(i * 13) % 400]);
    }
    // Every point twice: no spacing keeps the target, so the whole pool
    // is trimmed at spacing 0.
    let twice: Vec<Vec3> =
        uniform_box(300, 81, 0.0, 1.0).into_iter().flat_map(|p| [p, p]).collect();
    // A lattice on multiples of the fourth round's spacing, hi / 16 when
    // the first three rounds fail (0.1-like: its multiples' quotients
    // round), nudged by an ulp either way, inside a box whose two
    // corners fix hi.
    let corners = [Vec3::ZERO, Vec3::new(1.0, 0.9, 0.7)];
    let step = corners[1].norm() / 16.0;
    let mut boundaries = corners.to_vec();
    let mut rng = StdRng::seed_from_u64(82);
    for x in 1..11 {
        for y in 1..10 {
            for z in 1..8 {
                let nudge = |c: f64, r: u32| match r {
                    0 => c.next_down(),
                    1 => c.next_up(),
                    _ => c,
                };
                let c = [x, y, z].map(|k| k as f64 * step);
                boundaries.push(Vec3::new(
                    nudge(c[0], rng.gen_range(0..3)),
                    nudge(c[1], rng.gen_range(0..3)),
                    nudge(c[2], rng.gen_range(0..3)),
                ));
            }
        }
    }
    // The same at spacing 0.1 itself: a line of multiples of 0.1 whose
    // extent makes the fourth round's spacing exactly 0.1.
    let mut tenths: Vec<Vec3> = (0..=16).map(|k| Vec3::new(k as f64 * 0.1, 0.0, 0.0)).collect();
    tenths.push(Vec3::new(1.6, 0.0, 0.0));
    tenths.extend((0..16).map(|k| Vec3::new((k as f64 * 0.1).next_up(), 0.0, 0.0)));
    // Coordinates near 10⁹, and clusters 10⁹ apart, whose key box is
    // far wider than the cell budget.
    let offset = Vec3::new(1e9, -1e9, 3e8);
    let far_ball: Vec<Vec3> = ball[..2000].iter().map(|&p| p + offset).collect();
    let mut far_clusters: Vec<Vec3> = uniform_box(600, 83, 0.0, 1e4);
    far_clusters.extend(uniform_box(600, 84, 0.0, 1e4).into_iter().map(|p| p + offset));
    let cases: Vec<(&str, Vec<Vec3>, Vec<usize>)> = vec![
        ("uniform ball", ball, vec![1, 37, 400, 1000, 4000]),
        ("duplicates", duplicates, vec![50, 200, 399]),
        ("every point twice", twice, vec![301, 450, 600]),
        ("lattice on a round's spacing", boundaries, vec![60, 200, 400, 600]),
        ("a chain whose blockers drop out", chain(), vec![15, 20, 25, 30, 31, 40]),
        ("multiples of 0.1", tenths, vec![5, 9, 17, 33, 34]),
        ("coordinates near 1e9", far_ball, vec![100, 500]),
        ("clusters 1e9 apart", far_clusters, vec![80, 300]),
    ];
    let mut multi_drops = 0;
    for (name, pool, targets) in cases {
        for target in targets {
            multi_drops += usize::from(assert_selects_like_the_reference(name, &pool, target) > 1);
        }
    }
    assert!(multi_drops > 0, "no trim drops more than one point");
}

/// No two points closer than the spacing have keys two apart on an axis:
/// a strictly shorter distance bounds the exact quotients' difference
/// below one, and where rounding could push the keys apart (a quotient
/// just under a power of two, below which floats are twice as dense)
/// no float lies in the window that needs. So the key test of
/// [`greedy_thin`]'s predicate never rejects a point the distance test
/// accepted. Searched at the rounding boundaries, where pairs exactly
/// one spacing apart with keys two apart do exist; rounds over pools of
/// those pairs keep what [`greedy_thin`] keeps.
#[test]
fn no_pair_closer_than_the_spacing_has_keys_two_apart() {
    let near = |c: f64| {
        let first = (0..16).fold(c, |v, _| v.next_down());
        std::iter::successors(Some(first), |v: &f64| Some(v.next_up())).take(33)
    };
    let mut boundary_pairs: BTreeMap<u64, Vec<Vec3>> = BTreeMap::new();
    for s in [0.1, 0.3, 0.7, 1.0, 0.125, 3.7e-5, 12_345.678] {
        for m in [-9i32, -8, -4, -2, -1, 0, 1, 2, 3, 4, 8, 16, 1024, 1 << 20] {
            for a in near(f64::from(m) * s) {
                for b in near(f64::from(m + 1) * s) {
                    let (p, q) = (Vec3::new(a, 0.5, -0.5), Vec3::new(b, 0.5, -0.5));
                    if thin_key(q, s)[0] - thin_key(p, s)[0] < 2 {
                        continue;
                    }
                    let d2 = p.distance_squared(q);
                    assert!(d2 >= s * s, "{p} and {q} are closer than {s} with keys two apart");
                    if d2.to_bits() == (s * s).to_bits() {
                        boundary_pairs.entry(s.to_bits()).or_default().extend([p, q]);
                    }
                }
            }
        }
    }
    assert!(!boundary_pairs.is_empty(), "the search reaches no pair at the spacing");
    for (bits, pool) in boundary_pairs {
        let s = f64::from_bits(bits);
        let mut thinning = Thinning::new(&pool);
        for spacing in [1.5 * s, s, s.next_up(), s, 0.5 * s, s] {
            assert_eq!(thinning.round(spacing), reference_thin(&pool, spacing), "at {spacing}");
        }
    }
}
