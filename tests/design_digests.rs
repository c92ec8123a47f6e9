//! Literal pins for every design's wiring.
//!
//! A design's `NodeId`s, port numbers and event `seq`s all follow from
//! the order in which its `run()` mutates the kernel (`add_node`,
//! `install_link`, `inject_frame`, port claims), so a trace digest is a
//! fingerprint of that order. Run-twice equality cannot see a wiring
//! refactor that reorders it consistently; these literals can. They
//! change only with a deliberate, CHANGES.md-recorded change to what a
//! design builds.
//!
//! Every pin also re-folds the run's stored event stream with the
//! byte-at-a-time FNV-1a fold the kernel digest used before it folded
//! words, and checks the digest that fold produced. That second column
//! does not move when the digest function changes, only when the event
//! stream does.

use trading_networks::core::design::{
    CloudDesign, FpgaHybrid, LayerOneSwitches, TradingNetworkDesign, TraditionalSwitches,
};
use trading_networks::core::ScenarioConfig;
use trading_networks::fault::FaultSpec;
use trading_networks::sim::{fnv1a_fold, SimTime, TraceEvent, EMPTY_DIGEST};
use trading_networks::topo::{CloudConfig, CloudFairnessSpec};

/// `(trace_digest, byte_fold, events_recorded, orders_sent,
/// frames_dropped)`, where `byte_fold` is [`byte_fold`] of the stored
/// trace.
type Pin = (u64, u64, u64, u64, u64);

/// The kernel's trace digest as it was computed before it folded whole
/// words: each record's time, node, port, frame and kind as 23
/// little-endian bytes through FNV-1a.
fn byte_fold(events: &[TraceEvent]) -> u64 {
    events.iter().fold(EMPTY_DIGEST, |h, ev| {
        let h = fnv1a_fold(h, &ev.at.as_ps().to_le_bytes());
        let h = fnv1a_fold(h, &ev.node.0.to_le_bytes());
        let h = fnv1a_fold(h, &ev.port.0.to_le_bytes());
        let h = fnv1a_fold(h, &ev.frame.0.to_le_bytes());
        fnv1a_fold(h, &[ev.kind as u8])
    })
}

/// Run `design` on `sc` with trace storage on and read its pin.
fn pin_of(design: &dyn TradingNetworkDesign, sc: &ScenarioConfig) -> Pin {
    let mut sc = sc.clone();
    sc.obs.trace = true;
    let r = design.run(&sc);
    assert_eq!(
        r.trace.len() as u64,
        r.events_recorded,
        "stored every record"
    );
    (
        r.trace_digest,
        byte_fold(&r.trace),
        r.events_recorded,
        r.orders_sent,
        r.frames_dropped,
    )
}

fn fair_cloud() -> CloudDesign {
    CloudDesign {
        cloud: CloudConfig {
            fairness: CloudFairnessSpec::demo(),
            ..CloudConfig::default()
        },
    }
}

/// The five fabrics the small-scenario pins cover, in pin-table order:
/// Designs 1, 2, 3, 3b, then Design 2 with its fairness machinery on
/// (overlay + sequencer splice).
fn fabrics() -> Vec<(&'static str, Box<dyn TradingNetworkDesign>)> {
    vec![
        ("design1", Box::new(TraditionalSwitches::default())),
        ("design2", Box::new(CloudDesign::default())),
        ("design3", Box::new(LayerOneSwitches::default())),
        ("design3b", Box::new(FpgaHybrid::default())),
        ("design2-fair", Box::new(fair_cloud())),
    ]
}

#[rustfmt::skip]
const SMALL: [Pin; 5] = [
    (0x2855_8ec6_0594_614c, 0x3bdb_e130_2c52_ad01, 58_981, 841, 0),
    (0x3dcb_4d91_5a8f_6396, 0x8e8c_1f57_b80a_acdc, 27_481, 603, 0),
    (0x5957_92b1_c547_5577, 0x7148_2d62_2fe1_2946, 73_551, 970, 0),
    (0xc1b7_3878_2f78_830a, 0xd5b1_932e_9397_333a, 35_093, 970, 0),
    (0xc884_26db_16a2_a77a, 0xa5af_f4d0_b940_12de, 49_178, 540, 0),
];

#[rustfmt::skip]
const SMALL_FEED_LOSS: [Pin; 5] = [
    (0x86bf_ee25_9d3c_dd78, 0xe382_475f_1ece_e9ff, 54_801, 782, 27),
    (0xa02d_ab6a_0472_b5fa, 0x053a_5573_6d39_d314, 27_316, 603, 24),
    (0x2ead_b5cc_b831_0b85, 0xcce6_83d0_6fd5_7291, 60_364, 763, 14),
    (0xf3a8_f740_e885_353f, 0x4d04_0fae_9dbf_0bf7, 32_521, 916, 28),
    (0xeaa1_eb77_8c31_7775, 0x5272_bbf9_5147_100d, 48_456, 533, 23),
];

#[test]
fn every_fabric_reproduces_its_small_scenario_pin() {
    let sc = ScenarioConfig::small(7);
    for ((label, design), want) in fabrics().iter().zip(SMALL) {
        assert_eq!(pin_of(design.as_ref(), &sc), want, "{label}");
    }
}

#[test]
fn every_fabric_reproduces_its_lossy_feed_pin() {
    let mut sc = ScenarioConfig::small(7);
    sc.feed_fault = FaultSpec::iid(7, 0.01);
    for ((label, design), want) in fabrics().iter().zip(SMALL_FEED_LOSS) {
        assert_eq!(pin_of(design.as_ref(), &sc), want, "{label}");
    }
}

#[test]
fn layer_one_variants_reproduce_their_pins() {
    let sc = ScenarioConfig::small(7);
    let custom = LayerOneSwitches {
        custom_transport: true,
        ..LayerOneSwitches::default()
    };
    assert_eq!(
        pin_of(&custom, &sc),
        (0xadef_8f12_d88a_aa43, 0xb5b5_021e_a6c7_3796, 73_551, 970, 0),
        "custom transport"
    );
    // A cap of 2 covers both of the small scenario's normalizers, so it
    // must land on the uncapped pin; a cap of 1 halves every strategy's
    // circuits and moves the run.
    for (cap, want) in [
        (2, SMALL[2]),
        (
            1,
            (0x3491_ee98_0991_21ea, 0x262f_731a_502b_ab66, 39_717, 639, 0),
        ),
    ] {
        let capped = LayerOneSwitches {
            subscription_cap: Some(cap),
            ..LayerOneSwitches::default()
        };
        assert_eq!(pin_of(&capped, &sc), want, "subscription cap {cap}");
    }
}

/// The benchmark's two design workloads: the paper-scale preset with
/// only the simulated interval trimmed.
#[test]
fn paper_scale_designs_reproduce_their_pins() {
    let mut sc = ScenarioConfig::paper_scale(7);
    sc.duration = SimTime::from_ms(3);
    sc.warmup = SimTime::from_ms(1);
    assert_eq!(
        pin_of(&TraditionalSwitches::default(), &sc),
        (0x2fca_9cec_b991_95bd, 0x359b_6ba7_2aaf_fe6b, 91_837, 536, 0),
        "design1 paper scale"
    );
    assert_eq!(
        pin_of(&LayerOneSwitches::default(), &sc),
        (
            0x01a0_3dbd_8a0e_3874,
            0x7ba7_c643_d86b_4e9b,
            1_555_587,
            536,
            0
        ),
        "design3 paper scale"
    );
}

/// The golden digest: `examples/quickstart.rs`'s design and seed over
/// the divergence registry's trimmed interval.
#[test]
fn the_golden_quickstart_reproduces_its_pin() {
    let mut sc = ScenarioConfig::small(42);
    sc.duration = SimTime::from_ms(8);
    sc.warmup = SimTime::from_ms(1);
    assert_eq!(
        pin_of(&TraditionalSwitches::default(), &sc),
        (0xc9ef_3e6d_16da_def0, 0xff1d_bcd7_cf7e_729e, 19_924, 329, 0)
    );
}
