//! The shared exact level-count builder (`hhh_core::level_counts`)
//! builds each level from the one below through `Hierarchy::parent`.
//! These properties pin it to the per-item `generalize` reference,
//! level by level, and pin the exact reports built on it.

use hidden_hhh::core::{discount_bottom_up, level_counts};
use hidden_hhh::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// Every item generalized to every level and summed — the reference.
fn reference<H: Hierarchy>(h: &H, items: &[(H::Item, u64)]) -> Vec<HashMap<H::Prefix, u64>> {
    let mut maps = vec![HashMap::new(); h.levels()];
    for &(item, c) in items {
        for (level, map) in maps.iter_mut().enumerate() {
            *map.entry(h.generalize(item, level)).or_default() += c;
        }
    }
    maps
}

/// IPv4 items that share prefixes at every granularity: a few /8s, a
/// few blocks inside each, many hosts; repeated items are summed.
fn v4_items() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec(
        (0u32..4, 0u32..8, 0u32..4096, 1u64..1000)
            .prop_map(|(a, b, c, w)| ((a << 24) | (b << 12) | c, w)),
        0..200,
    )
}

fn v6_items() -> impl Strategy<Value = Vec<(u128, u64)>> {
    prop::collection::vec(
        (0u32..4, 0u32..8, any::<u64>(), 1u64..1000).prop_map(|(a, b, c, w)| {
            (((a as u128) << 120) | ((b as u128) << 64) | (c as u128 & 0xffff), w)
        }),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ipv4_levels_match_generalize_at_every_granularity(items in v4_items()) {
        for g in 1..=32u8 {
            let h = Ipv4Hierarchy::new(g);
            prop_assert_eq!(level_counts(&h, items.iter().map(|(i, c)| (i, c))), reference(&h, &items), "g={}", g);
        }
    }

    #[test]
    fn ipv6_levels_match_generalize(items in v6_items(), g in 1u8..=128) {
        for h in [Ipv6Hierarchy::new(g), Ipv6Hierarchy::nibbles(), Ipv6Hierarchy::hextets()] {
            prop_assert_eq!(level_counts(&h, items.iter().map(|(i, c)| (i, c))), reference(&h, &items));
        }
    }

    /// `ExactHhh::report` is the bottom-up discount over the reference
    /// level counts, at any threshold.
    #[test]
    fn exact_reports_match_the_reference(items in v4_items(), pct in 1u64..40) {
        for h in [Ipv4Hierarchy::bytes(), Ipv4Hierarchy::bits(), Ipv4Hierarchy::new(12)] {
            let mut det = ExactHhh::new(h);
            det.observe_batch(&items);
            let t = Threshold::percent(pct as f64 / 2.0);
            let want = discount_bottom_up(&h, &reference(&h, &items), t.absolute(det.total()));
            prop_assert_eq!(det.report(t), want);
        }
    }

    /// Every `SlidingExact` position equals the reference report of the
    /// packets inside that window.
    #[test]
    fn sliding_exact_reports_match_the_reference(
        raw in prop::collection::vec((0u64..4_000, 0u32..4, 0u32..64, 40u32..1500), 1..400),
        pct in 2u64..20,
    ) {
        let mut pkts: Vec<PacketRecord> = raw
            .iter()
            .map(|&(ms, a, b, len)| {
                PacketRecord::new(Nanos::from_millis(ms), (a << 24) | (b << 8), 1, len)
            })
            .collect();
        pkts.sort_by_key(|p| p.ts);
        let h = Ipv4Hierarchy::bytes();
        let (horizon, window, step) =
            (TimeSpan::from_secs(4), TimeSpan::from_secs(2), TimeSpan::from_millis(500));
        let t = Threshold::percent(pct as f64);
        let reports = Pipeline::new(pkts.iter().copied())
            .engine(SlidingExact::new(&h, horizon, window, step, &[t], |p| p.src))
            .collect()
            .run()
            .remove(0);
        prop_assert_eq!(reports.len(), 5);
        for r in &reports {
            let items: Vec<(u32, u64)> = pkts
                .iter()
                .filter(|p| p.ts >= r.start && p.ts < r.end)
                .map(|p| (p.src, Measure::Bytes.weight(p)))
                .collect();
            let total: u64 = items.iter().map(|i| i.1).sum();
            prop_assert_eq!(r.total, total);
            let want = discount_bottom_up(&h, &reference(&h, &items), t.absolute(total));
            prop_assert_eq!(&r.hhhs, &want, "position {}", r.index);
        }
    }
}
