//! Oracle test for [`Plan::validate`]: the dense validator (flat color masks
//! and last-writer arrays per written map) must return exactly what the
//! hash-map validator it replaced returned — the same `Ok`, or the same
//! `Err` in every field — on random maps and part sizes and on colorings
//! broken on purpose: merged colors, more than 64 colors, huge color
//! values, `det::maybe_break_coloring`'s shift, and broken block tilings.

use std::collections::HashMap;

use op2_core::{arg_direct, arg_indirect, Access, ArgSpec, Dat, Map, MapRef, Plan, PlanError, Set};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The reference: the validator as it was before the dense rewrite, one
/// `(map id, target, color)` key per indirect write reference.
fn reference_validate(plan: &Plan, args: &[ArgSpec]) -> Result<(), PlanError> {
    let write_refs: Vec<(&Map, usize)> = args
        .iter()
        .filter(|a| a.access.writes())
        .filter_map(|a| match &a.map_ref {
            MapRef::Indirect { map, idx } => Some((map, *idx)),
            MapRef::Direct => None,
        })
        .collect();
    // (map id, target, color) -> first block writing it under that color.
    let mut writer: HashMap<(u64, usize, u32), usize> = HashMap::new();
    for (b, range) in plan.blocks.iter().enumerate() {
        let color = plan.block_colors[b];
        for (map, idx) in &write_refs {
            for e in range.clone() {
                let t = map.at(e, *idx);
                match writer.get(&(map.id(), t, color)) {
                    Some(&b0) if b0 != b => {
                        return Err(PlanError::ColorConflict {
                            block_a: b0,
                            block_b: b,
                            color,
                            target: t,
                            map: map.name().to_owned(),
                        });
                    }
                    _ => {
                        writer.insert((map.id(), t, color), b);
                    }
                }
            }
        }
    }
    let mut covered = 0usize;
    let mut expect_start = 0usize;
    for r in &plan.blocks {
        if r.start != expect_start {
            return Err(PlanError::BlockGap {
                expected: expect_start,
                got: r.start,
            });
        }
        covered += r.len();
        expect_start = r.end;
    }
    if covered != plan.set_size {
        return Err(PlanError::Coverage {
            covered,
            set_size: plan.set_size,
        });
    }
    Ok(())
}

/// How a case breaks the coloring the planner built.
#[derive(Clone, Copy, Debug)]
enum Corruption {
    /// The planner's own coloring.
    None,
    /// Colors merged pairwise (`c -> c / 2`).
    Merge,
    /// More than 64 colors: every block its own color, each color split in
    /// two, or `b % 70`.
    Wide,
    /// Color values near `u32::MAX` (`c -> u32::MAX - c`, a valid
    /// relabelling) — far above `ncolors`, which the validator must not
    /// size anything from.
    Huge,
    /// `det::maybe_break_coloring`: colors 0 and 1 merge, the rest shift
    /// down one, `ncolors` drops by one.
    Shift,
    /// One block takes another block's color.
    Recolor,
    /// A block dropped, two blocks merged, or the last one shortened.
    Tiling,
}

const CORRUPTIONS: [Corruption; 7] = [
    Corruption::None,
    Corruption::Merge,
    Corruption::Wide,
    Corruption::Huge,
    Corruption::Shift,
    Corruption::Recolor,
    Corruption::Tiling,
];

/// One generated loop: its iteration set, the arguments (the maps and dats
/// stay alive through them), and a plan built for them, then corrupted.
struct Case {
    args: Vec<ArgSpec>,
    plan: Plan,
}

/// A random map from `from` into a fresh target set of the given shape:
/// uniform targets, a hub of at most three targets (every block conflicts,
/// so the planner needs one color per block), or mesh-like neighbours.
fn random_map(rng: &mut ChaCha8Rng, name: &str, from: &Set, dim: usize) -> Map {
    let n = from.size();
    let shape = rng.gen_range(0..3u32);
    let targets = match shape {
        0 => rng.gen_range(1..2 * n + 2),
        1 => rng.gen_range(1..4usize),
        _ => n + 2,
    };
    let to = Set::new(format!("{name}_to"), targets);
    let table = (0..n * dim)
        .map(|i| match shape {
            2 => ((i / dim + rng.gen_range(0..3usize)) % targets) as u32,
            _ => rng.gen_range(0..targets) as u32,
        })
        .collect();
    Map::new(name, from, &to, dim, table)
}

fn build_case(seed: u64, n: usize, part: usize, corruption: Corruption) -> Case {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let set = Set::new("elems", n);
    let dat_on = |map: &Map| Dat::filled(format!("{}_dat", map.name()), map.to_set(), 1, 0.0f64);
    // Every case writes one 2-ary map through both slots (`pecell`'s shape)…
    let pair = random_map(&mut rng, "pair", &set, 2);
    let pair_dat = dat_on(&pair);
    let mut args = vec![
        arg_indirect(&pair_dat, 0, &pair, Access::Inc),
        arg_indirect(&pair_dat, 1, &pair, Access::Inc),
    ];
    // …plus up to three more maps, written or only read, and a direct arg.
    for m in 0..rng.gen_range(0..4usize) {
        let dim = rng.gen_range(1..4usize);
        let map = random_map(&mut rng, &format!("m{m}"), &set, dim);
        let dat = dat_on(&map);
        let access =
            [Access::Read, Access::Write, Access::ReadWrite, Access::Inc][rng.gen_range(0..4usize)];
        args.push(arg_indirect(&dat, rng.gen_range(0..dim), &map, access));
    }
    args.push(arg_direct(
        &Dat::filled("direct", &set, 1, 0.0f64),
        Access::Write,
    ));

    let mut plan = Plan::build(&set, &args, part);
    let nb = plan.nblocks();
    let colors = &mut plan.block_colors;
    match corruption {
        Corruption::None => {}
        Corruption::Merge => colors.iter_mut().for_each(|c| *c /= 2),
        Corruption::Wide => {
            let form = rng.gen_range(0..3u32);
            for (b, c) in colors.iter_mut().enumerate() {
                *c = match form {
                    0 => b as u32,
                    1 => *c + 64 * (b as u32 % 2),
                    _ => b as u32 % 70,
                };
            }
        }
        Corruption::Huge => colors.iter_mut().for_each(|c| *c = u32::MAX - *c),
        Corruption::Shift => {
            if plan.ncolors >= 2 {
                colors.iter_mut().for_each(|c| *c = c.saturating_sub(1));
                plan.ncolors -= 1;
            }
        }
        Corruption::Recolor => {
            if nb > 0 {
                let (a, b) = (rng.gen_range(0..nb), rng.gen_range(0..nb));
                colors[a] = colors[b];
            }
        }
        Corruption::Tiling => {
            if nb > 0 {
                match rng.gen_range(0..3u32) {
                    0 => {
                        let b = rng.gen_range(0..nb);
                        plan.blocks.remove(b);
                        plan.block_colors.remove(b);
                    }
                    1 if nb >= 2 => {
                        let b = rng.gen_range(0..nb - 1);
                        let next = plan.blocks.remove(b + 1);
                        plan.blocks[b].end = next.end;
                        plan.block_colors.remove(b + 1);
                    }
                    _ => plan.blocks[nb - 1].end -= 1,
                }
            }
        }
    }
    Case { args, plan }
}

/// The two validators' verdicts on one case.
fn both(case: &Case) -> (Result<(), PlanError>, Result<(), PlanError>) {
    (
        case.plan.validate(&case.args),
        reference_validate(&case.plan, &case.args),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Dense and reference validators agree field for field.
    #[test]
    fn dense_validate_equals_reference(
        seed in any::<u64>(),
        n in 1usize..600,
        part in 1usize..301,
        corruption in 0usize..CORRUPTIONS.len(),
    ) {
        let case = build_case(seed, n, part, CORRUPTIONS[corruption]);
        let (dense, reference) = both(&case);
        prop_assert_eq!(dense, reference);
    }
}

/// The generator reaches every verdict, and colorings past one mask word,
/// so the agreement above is not vacuous. Deterministic seeds.
#[test]
fn oracle_cases_reach_every_verdict() {
    let (mut ok, mut conflict, mut gap, mut coverage, mut wide) = (0, 0, 0, 0, 0);
    for seed in 0..600u64 {
        let n = 1 + (seed as usize * 37) % 599;
        // Every other seed uses tiny blocks, so plans have many colors.
        let part = if seed % 2 == 0 {
            1 + seed as usize % 8
        } else {
            1 + (seed as usize * 13) % 300
        };
        let case = build_case(
            seed,
            n,
            part,
            CORRUPTIONS[seed as usize % CORRUPTIONS.len()],
        );
        let (dense, reference) = both(&case);
        assert_eq!(dense, reference, "seed {seed}, n {n}, part {part}");
        let mut distinct = case.plan.block_colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        wide += usize::from(distinct.len() > 64);
        match dense {
            Ok(()) => ok += 1,
            Err(PlanError::ColorConflict { .. }) => conflict += 1,
            Err(PlanError::BlockGap { .. }) => gap += 1,
            Err(PlanError::Coverage { .. }) => coverage += 1,
        }
    }
    for (what, count) in [
        ("Ok", ok),
        ("ColorConflict", conflict),
        ("BlockGap", gap),
        ("Coverage", coverage),
        (">64 colors", wide),
    ] {
        assert!(count >= 5, "only {count} cases of {what}");
    }
}
