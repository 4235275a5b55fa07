//! Serialization round-trips for the A-DCFG — traces must survive being
//! written to disk and reloaded for offline analysis.

use owl_dcfg::{Adcfg, AdcfgBuilder};

fn sample_graph() -> Adcfg {
    let mut b = AdcfgBuilder::new();
    for w in 0..3u64 {
        for (i, bb) in [0u32, 1, 2, 1, 3].into_iter().enumerate() {
            b.enter_block(w, bb);
            let mut rec = b.block_recorder(w);
            rec.access(0, [w * 64 + i as u64 * 8]);
            rec.cost(0, 1 + (i as u32 % 3));
        }
    }
    b.finish()
}

#[test]
fn adcfg_json_roundtrip_is_lossless() {
    let g = sample_graph();
    let json = serde_json::to_string(&g).expect("serialize");
    let back: Adcfg = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(g, back);
}

#[test]
fn merged_graphs_roundtrip_too() {
    let mut g = sample_graph();
    g.merge(&sample_graph());
    let json = serde_json::to_string(&g).expect("serialize");
    let back: Adcfg = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(g, back);
    // The merged counts are intact after the round-trip.
    assert_eq!(back.edge(1, 2), g.edge(1, 2));
    assert_eq!(back.node(1).unwrap().visits, 12);
}

#[test]
fn empty_graph_roundtrips() {
    let g = Adcfg::new();
    let json = serde_json::to_string(&g).expect("serialize");
    let back: Adcfg = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(g, back);
}

/// Pins the on-disk bytes of a serialized A-DCFG. The internal storage of
/// [`owl_stats::Histogram`] / [`owl_stats::TransitionMatrix`] may change
/// (e.g. the hybrid append fast path), but the serde format is a public
/// contract: traces written by one build must load in the next.
#[test]
fn adcfg_serde_bytes_are_stable() {
    let expected = concat!(
        r#"{"nodes":{"0":{"transitions":{"counts":[[[4294967295,1],3]]},"#,
        r#""mem":{"0":[{"bins":{"0":1,"64":1,"128":1}}]},"cost":{"0":[{"bins":{"1":3}}]},"visits":3},"#,
        r#""1":{"transitions":{"counts":[[[0,2],3],[[2,3],3]]},"#,
        r#""mem":{"0":[{"bins":{"8":1,"72":1,"136":1}},{"bins":{"24":1,"88":1,"152":1}}]},"#,
        r#""cost":{"0":[{"bins":{"2":3}},{"bins":{"1":3}}]},"visits":6},"#,
        r#""2":{"transitions":{"counts":[[[1,1],3]]},"mem":{"0":[{"bins":{"16":1,"80":1,"144":1}}]},"#,
        r#""cost":{"0":[{"bins":{"3":3}}]},"visits":3},"#,
        r#""3":{"transitions":{"counts":[[[1,4294967295],3]]},"mem":{"0":[{"bins":{"32":1,"96":1,"160":1}}]},"#,
        r#""cost":{"0":[{"bins":{"2":3}}]},"visits":3}},"#,
        r#""edges":[[[0,1],3],[[1,2],3],[[1,3],3],[[2,1],3],[[3,4294967295],3],[[4294967295,0],3]]}"#,
    );
    assert_eq!(
        serde_json::to_string(&sample_graph()).expect("serialize"),
        expected
    );
}
