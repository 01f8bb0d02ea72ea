//! Dense [`Demand`] and [`Profile`] against a `BTreeMap` model (the
//! reference scheduler's map demands, keyed by slot index): vector
//! arithmetic, profile construction, `fits`, `find_slot` and `reserve`
//! must agree on random slot vectors, releases and reservations.

mod reference;

use hpcqc_sched::{Demand, Profile, MAX_SLOTS};
use hpcqc_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use reference::{MapDemand, MapProfile};

fn units() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..12, 1..=MAX_SLOTS)
}

fn model(units: &[u32]) -> MapDemand<usize> {
    let mut m = MapDemand::new();
    for (slot, n) in units.iter().enumerate() {
        m.insert(slot, *n);
    }
    m
}

fn same(dense: &Demand, map: &MapDemand<usize>) -> bool {
    (0..MAX_SLOTS).all(|slot| dense.get(slot) == map.get(&slot))
}

/// Instants and durations are whole ticks of 50 s, so release times,
/// reservation edges and query windows often coincide.
fn at(ticks: u64) -> SimTime {
    SimTime::from_secs(50 * ticks)
}

fn span(ticks: u64) -> SimDuration {
    SimDuration::from_secs(50 * ticks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vector_arithmetic_matches_the_map(a in units(), b in units()) {
        let (da, db) = (Demand::from_units(&a), Demand::from_units(&b));
        let (ma, mb) = (model(&a), model(&b));
        prop_assert_eq!(da.covers(&db), ma.covers(&mb));
        prop_assert_eq!(da.is_empty(), ma.is_empty());
        let (mut sum, mut msum) = (da, ma.clone());
        sum.add(&db);
        msum.add(&mb);
        prop_assert!(same(&sum, &msum));
        let (mut diff, mut mdiff) = (da, ma);
        diff.subtract(&db);
        mdiff.subtract(&mb);
        prop_assert!(same(&diff, &mdiff));
    }

    #[test]
    fn profile_matches_the_map(
        free in units(),
        releases in prop::collection::vec((0u64..10, units()), 0..8),
        reservations in prop::collection::vec((units(), 0u64..12, 0u64..8), 0..6),
        queries in prop::collection::vec((units(), 0u64..14, 0u64..8), 1..8),
    ) {
        let now = at(2);
        let dense_releases: Vec<_> =
            releases.iter().map(|(t, u)| (at(*t), Demand::from_units(u))).collect();
        let map_releases: Vec<_> = releases.iter().map(|(t, u)| (at(*t), model(u))).collect();
        let mut dense = Profile::build(now, Demand::from_units(&free), &dense_releases);
        let mut map = MapProfile::build(now, model(&free), &map_releases);

        let check = |dense: &Profile, map: &MapProfile<usize>| -> Result<(), TestCaseError> {
            prop_assert_eq!(dense.segments(), map.segments());
            for secs in (0..800).step_by(25) {
                let t = SimTime::from_secs(secs);
                prop_assert!(same(dense.free_at(t), map.free_at(t)), "free_at({})", t);
            }
            for (u, start, ticks) in &queries {
                let (d, m, dur) = (Demand::from_units(u), model(u), span(*ticks));
                prop_assert_eq!(dense.fits(&d, at(*start), dur), map.fits(&m, at(*start), dur));
                prop_assert_eq!(
                    dense.find_slot(&d, dur, at(*start)),
                    map.find_slot(&m, dur, at(*start))
                );
            }
            Ok(())
        };
        check(&dense, &map)?;
        for (u, start, ticks) in &reservations {
            let dur = span(*ticks);
            dense.reserve(&Demand::from_units(u), at(*start), dur);
            map.reserve(&model(u), at(*start), dur);
            check(&dense, &map)?;
        }
    }
}
