//! The shipped example decks must parse, bias, and measure sensibly —
//! they are the first thing a new user feeds to `asdex sim` — and the
//! shipped *sizing* decks (`decks/*.sp`) must compile through the
//! netlist-bench frontend and reproduce their recorded measurement
//! goldens bit for bit.

use asdex::env::circuits::ldo::Ldo;
use asdex::env::circuits::opamp::TwoStageOpamp;
use asdex::env::{
    netlist_digest, EvalEffort, FailureKind, NetlistBench, PvtSet, SearchBudget, Searcher,
};
use asdex::spice::analysis::{ac_analysis, dc_operating_point, OpOptions, SolverChoice, Sweep};
use asdex::spice::measure::frequency_response;
use asdex::spice::parser::parse_netlist;
use asdex_rng::rngs::StdRng;
use asdex_rng::SeedableRng;
use std::path::Path;

#[test]
fn rc_filter_deck_measures_like_two_cascaded_poles() {
    let src = std::fs::read_to_string("decks/rc_filter.cir").expect("deck ships with the repo");
    let ckt = parse_netlist(&src).expect("parses");
    let ac = ac_analysis(
        &ckt,
        Sweep::Decade { fstart: 10.0, fstop: 10e6, points_per_decade: 10 },
        &OpOptions::default(),
    )
    .expect("ac runs");
    let out = ckt.find_node("out").expect("out node");
    let fr = frequency_response(&ac, out);
    assert!((fr.dc_gain_db - 0.0).abs() < 0.1, "unity DC gain, got {}", fr.dc_gain_db);
    let bw = fr.bandwidth_3db.expect("has a corner");
    // Dominant pole ≈ 1/(2π·(R1·C1 + (R1+R2)·C2)) ≈ 7.5 kHz; loose check.
    assert!(bw > 1e3 && bw < 20e3, "bandwidth {bw}");
}

#[test]
fn opamp_deck_biases_and_amplifies() {
    let src =
        std::fs::read_to_string("decks/two_stage_opamp.cir").expect("deck ships with the repo");
    let ckt = parse_netlist(&src).expect("parses (subckt expansion)");
    let op = dc_operating_point(&ckt, &OpOptions::default()).expect("biases");
    let out = ckt.find_node("out").expect("out node");
    let vout = op.voltage(out);
    assert!(
        (0.5..1.5).contains(&vout),
        "feedback centers the output near the input common mode, got {vout}"
    );
    let ac = ac_analysis(
        &ckt,
        Sweep::Decade { fstart: 10.0, fstop: 10e9, points_per_decade: 10 },
        &OpOptions::default(),
    )
    .expect("ac runs");
    let fr = frequency_response(&ac, out);
    assert!(fr.dc_gain_db > 60.0, "open-loop gain {} dB", fr.dc_gain_db);
    assert!(fr.unity_gain_freq.is_some(), "has a UGF");
}

/// Grid-midpoint measurement goldens for every shipped sizing deck, as
/// IEEE-754 bit patterns (`{:016x}` of `f64::to_bits`), in measurement
/// order `gain_db, ugf_hz, pm_deg, power_w, area_m2`. String equality ⇔
/// bitwise equality — the same contract the journal and wire formats
/// use — so any change to a deck, the parser, the compiler, or the
/// simulator that perturbs even one ulp fails here by name.
const SIZING_GOLDENS: &[(&str, [&str; 5])] = &[
    (
        "two_stage_opamp_sized.sp",
        [
            "4058437fddbb7b2a",
            "418370b80341bd8b",
            "4029f01e81f33820",
            "3f0cbd99aae1108a",
            "3db23b318ff64a87",
        ],
    ),
    (
        "folded_cascode_opamp.sp",
        [
            "c0660334c5897b20",
            "0000000000000000",
            "0000000000000000",
            "3f0bb6092fc50cda",
            "3dab4b1a6284035a",
        ],
    ),
    (
        "bandgap_reference.sp",
        [
            "c048740a3c5423b2",
            "0000000000000000",
            "0000000000000000",
            "3ec287e67ed65610",
            "3da718e89e5a2764",
        ],
    ),
    (
        "comparator.sp",
        [
            "40584c2ff8a2e0b6",
            "41be348c7db3a7b5",
            "c0244deec5c35350",
            "3f0ca03faeba17ef",
            "3db23b318ff64a87",
        ],
    ),
    (
        "two_stage_ldo.sp",
        [
            "c0651f073c734a82",
            "0000000000000000",
            "0000000000000000",
            "3ef30ff6e5dedbc6",
            "3da27737fec6d694",
        ],
    ),
];

/// [`SIZING_GOLDENS`] on the sparse backend: the same decks and
/// measurements, solved with the sparse LU, whose elimination order
/// differs from the dense one's, so some figures land on neighbouring
/// bits.
const SIZING_SPARSE_GOLDENS: &[(&str, [&str; 5])] = &[
    (
        "two_stage_opamp_sized.sp",
        [
            "4058437fddbb7b2a",
            "418370b80341bd8b",
            "4029f01e81f33820",
            "3f0cbd99aae1108a",
            "3db23b318ff64a87",
        ],
    ),
    (
        "folded_cascode_opamp.sp",
        [
            "c0660334c5897b24",
            "0000000000000000",
            "0000000000000000",
            "3f0bb6092fc50cda",
            "3dab4b1a6284035a",
        ],
    ),
    (
        "bandgap_reference.sp",
        [
            "c048740a3c54226b",
            "0000000000000000",
            "0000000000000000",
            "3ec287e67ed65682",
            "3da718e89e5a2764",
        ],
    ),
    (
        "comparator.sp",
        [
            "40584c2ff8a2da8a",
            "41be348c7db3a4a3",
            "c0244deec5c35140",
            "3f0ca03faeba2d40",
            "3db23b318ff64a87",
        ],
    ),
    (
        "two_stage_ldo.sp",
        [
            "c0651f073c734a82",
            "0000000000000000",
            "0000000000000000",
            "3ef30ff6e5dedbb3",
            "3da27737fec6d694",
        ],
    ),
];

/// Measurement goldens for the built-in MNA benches, one row per
/// evaluation: `bench point corner solver attempt` followed by the five
/// measurements as IEEE-754 bit patterns (or `err:<kind>` when the
/// evaluation failed). Points: `p0` is the grid midpoint, `p1`/`p2` are
/// seeded grid points; corners are `signoff5` in order; every row runs
/// through the bench's own evaluator on both solver backends, at the
/// stock attempt and at the first escalated one.
const BUILTIN_GOLDENS: &[&str] = &[
    "opamp45 p0 c0 dense a0 4058437fddbb7b2a 418370b80341bd8b 4029f01e81f33820 3f0cbd99aae1108a 3db23b318ff64a87",
    "opamp45 p0 c0 dense a1 4058437fd79afb5a 418370b82af2484f 4029f022a971b180 3f0cbd99aae13f90 3db23b318ff64a87",
    "opamp45 p0 c1 dense a0 405677c87f38a2b7 4179e870a0014885 4029a3d2483ed880 3f09dbe9d2cb8dd5 3db23b318ff64a87",
    "opamp45 p0 c1 dense a1 405677c87f72e7c0 4179e870a4026e6c 4029a3d236f85cf0 3f09dbe9d2ceee8f 3db23b318ff64a87",
    "opamp45 p0 c2 dense a0 4058ac6d5628fbe0 41848fd47e5764e5 402ad45c880eafe0 3f093ba047490e61 3db23b318ff64a87",
    "opamp45 p0 c2 dense a1 4058ac6d57e62fca 41848fd45585dd31 402ad45d6a6b7e90 3f093ba047781ccd 3db23b318ff64a87",
    "opamp45 p0 c3 dense a0 4057922204fb3bed 418160531ca98ef1 4028c180d4541cb0 3f104a6845cb48bb 3db23b318ff64a87",
    "opamp45 p0 c3 dense a1 40579221dfa0ddc6 4181605173a6a3dc 4028c18c7c6f6f60 3f104a6844c268a9 3db23b318ff64a87",
    "opamp45 p0 c4 dense a0 4059c7ecb6bf59f6 418b8cd528ea8eca 402a4dfcda6708c0 3f0fc29279452991 3db23b318ff64a87",
    "opamp45 p0 c4 dense a1 4059c7ecb6bde66a 418b8cd528d81740 402a4dfcdb196520 3f0fc29279452049 3db23b318ff64a87",
    "opamp45 p1 c0 dense a0 405872fa2000ccc4 41a8eff18aa08ee1 4021589781e29370 3f29dc28da5ebd3a 3dc8ba7042c36929",
    "opamp45 p1 c0 dense a1 405872fa1ff73acf 41a8eff18adcd504 40215897866de780 3f29dc28da5e788b 3dc8ba7042c36929",
    "opamp45 p1 c1 dense a0 4056a5f7d5c724d6 41a083c4357f925c 4022651f84f8d6a0 3f273f14e3609a4a 3dc8ba7042c36929",
    "opamp45 p1 c1 dense a1 4056a5f7d5b2aab9 41a083c4368a7136 4022651f7f764110 3f273f14e35dc8fc 3dc8ba7042c36929",
    "opamp45 p1 c2 dense a0 4058dc36a3f3c718 41aa7491eb670942 4021ba0a045d70d0 3f26af5e88c5cfb8 3dc8ba7042c36929",
    "opamp45 p1 c2 dense a1 4058dc36a28b8ef2 41aa7491e0a1bad7 4021ba0a15d277b0 3f26af5e88b53235 3dc8ba7042c36929",
    "opamp45 p1 c3 dense a0 4057c10db1073757 41a63054618a160f 40210e518c267290 3f2d56c1feb05324 3dc8ba7042c36929",
    "opamp45 p1 c3 dense a1 4057c10db22a4c9b 41a6305444cd3e43 40210e520e83e850 3f2d56c1fee25ce0 3dc8ba7042c36929",
    "opamp45 p1 c4 dense a0 4059f82cf1e60808 41b1bb482e30d094 4020bb4779efdb60 3f2c99b060419e30 3dc8ba7042c36929",
    "opamp45 p1 c4 dense a1 4059f82ccf878c4d 41b1bb46e8822e8d 4020bb4e9c441f20 3f2c99b05f29e523 3dc8ba7042c36929",
    "opamp45 p2 c0 dense a0 405c2c712bbcc744 41520fabed8169fe 4048ae79b3a59780 3edf44ab9d86cf00 3dc271d3d434931b",
    "opamp45 p2 c0 dense a1 405c2c6c28f2df36 41520f9bb0a17e3b 4048afb0f3c875d8 3edf44ab9d7d5b20 3dc271d3d434931b",
    "opamp45 p2 c1 dense a0 405ad98b4cbfb3b7 414827f42963d5c9 403f731f252529c0 3edc328bddb1f1e6 3dc271d3d434931b",
    "opamp45 p2 c1 dense a1 405ad98b3ee5fe58 414827f3e8f2caae 403f73270c286eb0 3edc328bddb1b919 3dc271d3d434931b",
    "opamp45 p2 c2 dense a0 405c610ff4f5b62d 41530c57e2e572d6 404b946192f581b4 3edb8245982c5932 3dc271d3d434931b",
    "opamp45 p2 c2 dense a1 405c61105d1ccf1a 41530c59526723ea 404b94483b6af172 3edb8245982ce9fb 3dc271d3d434931b",
    "opamp45 p2 c3 dense a0 405bbe8f993b51e4 415036aba6e6168b 40441b7d4a8f81d8 3ee1b046064b7c30 3dc271d3d434931b",
    "opamp45 p2 c3 dense a1 405bbe9150227b50 415036b0aded9fa3 40441b0d4674bab0 3ee1b046064e0ba1 3dc271d3d434931b",
    "opamp45 p2 c4 dense a0 405d15cbef8eb15d 41598e9ab9efcb21 404f4ffd6173b060 3ee13da0a8c403f3 3dc271d3d434931b",
    "opamp45 p2 c4 dense a1 405d15bdbfd95f7f 41598e4da19b37cd 404f53c716a0b81a 3ee13da0a8bb458f 3dc271d3d434931b",
    "opamp45 p0 c0 sparse a0 4058437fddbb7b2a 418370b80341bd8b 4029f01e81f33820 3f0cbd99aae1108a 3db23b318ff64a87",
    "opamp45 p0 c0 sparse a1 4058437fd79afb5a 418370b82af2484f 4029f022a971b180 3f0cbd99aae13f90 3db23b318ff64a87",
    "opamp45 p0 c1 sparse a0 405677c87f38a2b7 4179e870a0014885 4029a3d2483ed870 3f09dbe9d2cb8dd5 3db23b318ff64a87",
    "opamp45 p0 c1 sparse a1 405677c87f72e7c0 4179e870a4026e6c 4029a3d236f85cf0 3f09dbe9d2ceee8f 3db23b318ff64a87",
    "opamp45 p0 c2 sparse a0 4058ac6d5628fbe0 41848fd47e5764e5 402ad45c880eaff0 3f093ba047490e61 3db23b318ff64a87",
    "opamp45 p0 c2 sparse a1 4058ac6d57e62fca 41848fd45585dd31 402ad45d6a6b7ea0 3f093ba047781ccd 3db23b318ff64a87",
    "opamp45 p0 c3 sparse a0 4057922204fb3bed 418160531ca98edf 4028c180d4541cc0 3f104a6845cb48bb 3db23b318ff64a87",
    "opamp45 p0 c3 sparse a1 40579221dfa0ddc6 4181605173a6a3dc 4028c18c7c6f6f60 3f104a6844c268a9 3db23b318ff64a87",
    "opamp45 p0 c4 sparse a0 4059c7ecb6bf59f6 418b8cd528ea8eca 402a4dfcda6708b0 3f0fc29279452991 3db23b318ff64a87",
    "opamp45 p0 c4 sparse a1 4059c7ecb6bde66a 418b8cd528d81740 402a4dfcdb196520 3f0fc29279452049 3db23b318ff64a87",
    "opamp45 p1 c0 sparse a0 405872fa2000ccc4 41a8eff18aa08ee1 4021589781e29360 3f29dc28da5ebd3a 3dc8ba7042c36929",
    "opamp45 p1 c0 sparse a1 405872fa1ff73acf 41a8eff18adcd504 40215897866de790 3f29dc28da5e788b 3dc8ba7042c36929",
    "opamp45 p1 c1 sparse a0 4056a5f7d5c724d6 41a083c4357f925c 4022651f84f8d690 3f273f14e3609a4a 3dc8ba7042c36929",
    "opamp45 p1 c1 sparse a1 4056a5f7d5b2aab9 41a083c4368a7136 4022651f7f764110 3f273f14e35dc8fc 3dc8ba7042c36929",
    "opamp45 p1 c2 sparse a0 4058dc36a3f3c718 41aa7491eb670942 4021ba0a045d70d0 3f26af5e88c5cfb8 3dc8ba7042c36929",
    "opamp45 p1 c2 sparse a1 4058dc36a28b8ef2 41aa7491e0a1bad7 4021ba0a15d277b0 3f26af5e88b53235 3dc8ba7042c36929",
    "opamp45 p1 c3 sparse a0 4057c10db1073757 41a63054618a160f 40210e518c2672a0 3f2d56c1feb05324 3dc8ba7042c36929",
    "opamp45 p1 c3 sparse a1 4057c10db22a4c9b 41a6305444cd3e43 40210e520e83e860 3f2d56c1fee25ce0 3dc8ba7042c36929",
    "opamp45 p1 c4 sparse a0 4059f82cf1e60808 41b1bb482e30d094 4020bb4779efdb70 3f2c99b060419e30 3dc8ba7042c36929",
    "opamp45 p1 c4 sparse a1 4059f82ccf878c4d 41b1bb46e8822e8d 4020bb4e9c441f20 3f2c99b05f29e523 3dc8ba7042c36929",
    "opamp45 p2 c0 sparse a0 405c2c712bbcc744 41520fabed8169fe 4048ae79b3a5977c 3edf44ab9d86cf00 3dc271d3d434931b",
    "opamp45 p2 c0 sparse a1 405c2c6c28f2df36 41520f9bb0a17e3b 4048afb0f3c875dc 3edf44ab9d7d5b20 3dc271d3d434931b",
    "opamp45 p2 c1 sparse a0 405ad98b4cbfb3b7 414827f42963d5c9 403f731f252529b0 3edc328bddb1f1e6 3dc271d3d434931b",
    "opamp45 p2 c1 sparse a1 405ad98b3ee5fe58 414827f3e8f2caae 403f73270c286eb8 3edc328bddb1b919 3dc271d3d434931b",
    "opamp45 p2 c2 sparse a0 405c610ff4f5b62d 41530c57e2e572d6 404b946192f581b4 3edb8245982c5932 3dc271d3d434931b",
    "opamp45 p2 c2 sparse a1 405c61105d1ccf1b 41530c59526723ea 404b94483b6af168 3edb8245982ce9fb 3dc271d3d434931b",
    "opamp45 p2 c3 sparse a0 405bbe8f993b51e4 415036aba6e6168b 40441b7d4a8f81d4 3ee1b046064b7c30 3dc271d3d434931b",
    "opamp45 p2 c3 sparse a1 405bbe9150227b50 415036b0aded9fa3 40441b0d4674bab0 3ee1b046064e0ba1 3dc271d3d434931b",
    "opamp45 p2 c4 sparse a0 405d15cbef8eb15d 41598e9ab9efcb21 404f4ffd6173b06a 3ee13da0a8c403f3 3dc271d3d434931b",
    "opamp45 p2 c4 sparse a1 405d15bdbfd95f7f 41598e4da19b37cd 404f53c716a0b81a 3ee13da0a8bb458f 3dc271d3d434931b",
    "opamp22 p0 c0 dense a0 4058d3a36b11147b 418fa6ba46922216 402f5e3925e03b60 3f07f540791ded88 3da441c54a9fe108",
    "opamp22 p0 c0 dense a1 4058d3a376c70c8a 418fa6bb45b418e4 402f5e35a5774960 3f07f540797fed68 3da441c54a9fe108",
    "opamp22 p0 c1 dense a0 4057003482af48cf 418528893fc07fd2 402ed973be453e60 3f05a2d6074720da 3da441c54a9fe108",
    "opamp22 p0 c1 dense a1 405700349c129c29 418528894152ca54 402ed973ac8457a0 3f05a2d607474f6d 3da441c54a9fe108",
    "opamp22 p0 c2 dense a0 4059437581e5cce6 419093a488868e90 4030541fd3cad3e8 3f04d7fa0e0140e2 3da441c54a9fe108",
    "opamp22 p0 c2 dense a1 4059437584b88c37 419093a4894cc147 4030541fd13a86a0 3f04d7fa0e01190f 3da441c54a9fe108",
    "opamp22 p0 c3 dense a0 405817fb1d50d4d9 418ca42ab1f124e0 402dca1c27cb5320 3f0b7cfbbb3659cb 3da441c54a9fe108",
    "opamp22 p0 c3 dense a1 405817fb1d5fa4f8 418ca42ab34b6882 402dca1c22b4ee40 3f0b7cfbbb36e2bf 3da441c54a9fe108",
    "opamp22 p0 c4 dense a0 405a5ce52a55cce7 41966afa7e7eb390 402fd71f18cbbeb0 3f0a714fa768455c 3da441c54a9fe108",
    "opamp22 p0 c4 dense a1 405a5ce51a0daa8f 41966afb962d77ef 402fd73923f458c0 3f0a714fa766ebe4 3da441c54a9fe108",
    "opamp22 p1 c0 dense a0 405903797303d512 41b4f4b38b214979 4026aed134e65710 3f2597416d4f57b8 3dbb79d2114ae69f",
    "opamp22 p1 c0 dense a1 4059037975e1ac8e 41b4f4b3307500e9 4026aece1fd3e750 3f2597416d4fcd48 3dbb79d2114ae69f",
    "opamp22 p1 c1 dense a0 40572ee4300f52b3 41abda69c56e92af 402767c70ae01510 3f237aa752545d3a 3dbb79d2114ae69f",
    "opamp22 p1 c1 dense a1 40572ee434153213 41abda68f8e56a30 402767c028006ec0 3f237aa75222b8ca 3dbb79d2114ae69f",
    "opamp22 p1 c2 dense a0 40597397245a8815 41b60a045d84a060 4027617068b85e60 3f22c3d8fff5d033 3dbb79d2114ae69f",
    "opamp22 p1 c2 dense a1 405973974fcf22bc 41b60a06940406a4 40276166a2999d50 3f22c3d9010a002c 3dbb79d2114ae69f",
    "opamp22 p1 c3 dense a0 40584747a46dd16e 41b2e1239437e241 40260a30e255d4f0 3f28cbecfaada3d5 3dbb79d2114ae69f",
    "opamp22 p1 c3 dense a1 40584747a4a2e47e 41b2e1238f1a214e 40260a30fe34f0b0 3f28cbecfab52cc9 3dbb79d2114ae69f",
    "opamp22 p1 c4 dense a0 405a8d66b7faa809 41bdd0d241335037 402647c706dd5530 3f27da240ddfe8fd 3dbb79d2114ae69f",
    "opamp22 p1 c4 dense a1 405a8d66c29f826b 41bdd0d2f689d7d4 402647c4bdbef2c0 3f27da240e2117da 3dbb79d2114ae69f",
    "opamp22 p2 c0 dense a0 405ce0d458ff312e 415cfb291d0dedb2 404864fe05ccbdbc 3ed9f60e503fa690 3db47e7996734e1f",
    "opamp22 p2 c0 dense a1 405ce0d45f9d51cf 415cfb294d78478e 404864fbf7cb18ec 3ed9f60e503faed0 3db47e7996734e1f",
    "opamp22 p2 c1 dense a0 405b6cebc6b70cb4 415373a06812847c 404037e6804c69b0 3ed7810569b2bb52 3db47e7996734e1f",
    "opamp22 p2 c1 dense a1 405b6cf118e42df2 415373bcaf0b1dd5 40403600df636c8c 3ed7810569c68fa8 3db47e7996734e1f",
    "opamp22 p2 c2 dense a0 405d1eec6b100c87 415e3ae12c69e40c 404bac9d83dbf440 3ed6a4f471eca254 3db47e7996734e1f",
    "opamp22 p2 c2 dense a1 405d1eec5a7f8336 415e3ae12854b6ce 404bac9c1855ae42 3ed6a4f471ec9427 3db47e7996734e1f",
    "opamp22 p2 c3 dense a0 405c6011d692e0ec 415a5f0447b071f6 40438ba65a6803cc 3eddb696e75ccb05 3db47e7996734e1f",
    "opamp22 p2 c3 dense a1 405c600524ed2602 415a5ef82671491b 40438ba2f82679e4 3eddb696e74f451d 3db47e7996734e1f",
    "opamp22 p2 c4 dense a0 405de674c4b05a3b 41647c7b2dc8e1f3 404f022c67f8b39e 3edc9612b328983a 3db47e7996734e1f",
    "opamp22 p2 c4 dense a1 405de676def49b4e 41647c87838fe723 404f0178de3363ae 3edc9612b32ab851 3db47e7996734e1f",
    "opamp22 p0 c0 sparse a0 4058d3a36b11147b 418fa6ba46922216 402f5e3925e03b40 3f07f540791ded88 3da441c54a9fe108",
    "opamp22 p0 c0 sparse a1 4058d3a376c70c8a 418fa6bb45b418e4 402f5e35a5774970 3f07f540797fed68 3da441c54a9fe108",
    "opamp22 p0 c1 sparse a0 4057003482af48cf 418528893fc07fd2 402ed973be453e60 3f05a2d6074720da 3da441c54a9fe108",
    "opamp22 p0 c1 sparse a1 405700349c129c28 418528894152ca54 402ed973ac8457a0 3f05a2d607474f6d 3da441c54a9fe108",
    "opamp22 p0 c2 sparse a0 4059437581e5cce6 419093a488868e90 4030541fd3cad3f0 3f04d7fa0e0140e2 3da441c54a9fe108",
    "opamp22 p0 c2 sparse a1 4059437584b88c37 419093a4894cc147 4030541fd13a8698 3f04d7fa0e01190f 3da441c54a9fe108",
    "opamp22 p0 c3 sparse a0 405817fb1d50d4d9 418ca42ab1f124e0 402dca1c27cb5320 3f0b7cfbbb3659cb 3da441c54a9fe108",
    "opamp22 p0 c3 sparse a1 405817fb1d5fa4f8 418ca42ab34b6882 402dca1c22b4ee30 3f0b7cfbbb36e2bf 3da441c54a9fe108",
    "opamp22 p0 c4 sparse a0 405a5ce52a55cce7 41966afa7e7eb390 402fd71f18cbbeb0 3f0a714fa768455c 3da441c54a9fe108",
    "opamp22 p0 c4 sparse a1 405a5ce51a0daa8e 41966afb962d77ef 402fd73923f458d0 3f0a714fa766ebe4 3da441c54a9fe108",
    "opamp22 p1 c0 sparse a0 405903797303d512 41b4f4b38b214979 4026aed134e65710 3f2597416d4f57b8 3dbb79d2114ae69f",
    "opamp22 p1 c0 sparse a1 4059037975e1ac8e 41b4f4b3307500e9 4026aece1fd3e750 3f2597416d4fcd48 3dbb79d2114ae69f",
    "opamp22 p1 c1 sparse a0 40572ee4300f52b3 41abda69c56e92af 402767c70ae01500 3f237aa752545d3a 3dbb79d2114ae69f",
    "opamp22 p1 c1 sparse a1 40572ee434153213 41abda68f8e56a30 402767c028006eb0 3f237aa75222b8ca 3dbb79d2114ae69f",
    "opamp22 p1 c2 sparse a0 40597397245a8815 41b60a045d84a060 4027617068b85e50 3f22c3d8fff5d033 3dbb79d2114ae69f",
    "opamp22 p1 c2 sparse a1 405973974fcf22bc 41b60a06940406a4 40276166a2999d50 3f22c3d9010a002c 3dbb79d2114ae69f",
    "opamp22 p1 c3 sparse a0 40584747a46dd16e 41b2e1239437e241 40260a30e255d4f0 3f28cbecfaada3d5 3dbb79d2114ae69f",
    "opamp22 p1 c3 sparse a1 40584747a4a2e47e 41b2e1238f1a214e 40260a30fe34f0b0 3f28cbecfab52cc9 3dbb79d2114ae69f",
    "opamp22 p1 c4 sparse a0 405a8d66b7faa809 41bdd0d241335037 402647c706dd5530 3f27da240ddfe8fd 3dbb79d2114ae69f",
    "opamp22 p1 c4 sparse a1 405a8d66c29f826b 41bdd0d2f689d7d4 402647c4bdbef2c0 3f27da240e2117da 3dbb79d2114ae69f",
    "opamp22 p2 c0 sparse a0 405ce0d458ff312e 415cfb291d0deda3 404864fe05ccbdc0 3ed9f60e503fa690 3db47e7996734e1f",
    "opamp22 p2 c0 sparse a1 405ce0d45f9d51cf 415cfb294d78479d 404864fbf7cb18e4 3ed9f60e503faed0 3db47e7996734e1f",
    "opamp22 p2 c1 sparse a0 405b6cebc6b70cb4 415373a068128486 404037e6804c69b4 3ed7810569b2bb52 3db47e7996734e1f",
    "opamp22 p2 c1 sparse a1 405b6cf118e42df2 415373bcaf0b1dd5 40403600df636c90 3ed7810569c68fa8 3db47e7996734e1f",
    "opamp22 p2 c2 sparse a0 405d1eec6b100c87 415e3ae12c69e40c 404bac9d83dbf446 3ed6a4f471eca254 3db47e7996734e1f",
    "opamp22 p2 c2 sparse a1 405d1eec5a7f8336 415e3ae12854b6ce 404bac9c1855ae4a 3ed6a4f471ec9427 3db47e7996734e1f",
    "opamp22 p2 c3 sparse a0 405c6011d692e0ec 415a5f0447b071f6 40438ba65a6803c8 3eddb696e75ccb05 3db47e7996734e1f",
    "opamp22 p2 c3 sparse a1 405c600524ed2602 415a5ef82671491b 40438ba2f82679dc 3eddb696e74f451d 3db47e7996734e1f",
    "opamp22 p2 c4 sparse a0 405de674c4b05a3b 41647c7b2dc8e1f3 404f022c67f8b398 3edc9612b328983a 3db47e7996734e1f",
    "opamp22 p2 c4 sparse a1 405de676def49b4e 41647c87838fe723 404f0178de3363aa 3edc9612b32ab851 3db47e7996734e1f",
    "ldo p0 c0 dense a0 40504a3089b6552e 40537aa1f95db1ee 407814c5726c92f2 3ef9c90c5d7ae400 3feeb636c2c49189",
    "ldo p0 c0 dense a1 40504a3089b654a8 40537aa1f95dafde 407814c5726c92f2 3ef9c90c5d7a9c00 3feeb636c2c48eef",
    "ldo p0 c1 dense a0 404cd1b5a3d631bf 405419c9e94be42d 407814c5726c92f2 3ef9740c15360c00 3feba207a7b96fb8",
    "ldo p0 c1 dense a1 404cd1b5a3d6424a 405419c9e94be87c 407814c5726c92f2 3ef9740c1535b800 3feba207a7b95f9c",
    "ldo p0 c2 dense a0 c072c00000000000 4056800000000000 407814c5726c92f2 3ee5770a532fcd7d 0000000000000000",
    "ldo p0 c2 dense a1 c0701d400676aabc 4056800000000000 407814c5726c92f2 3ee5770a533111fd b96ec54577188135",
    "ldo p0 c3 dense a0 404f41de08f561e6 4053a6d6dbed1247 407814c5726c92f2 3efb30259b49d400 3ff0e3e96ab5f22a",
    "ldo p0 c3 dense a1 404f41de08ce70ed 4053a6d6db8748b5 407814c5726c92f2 3efb30259b248400 3ff0e3e96a56d5e6",
    "ldo p0 c4 dense a0 4051e034f00e575e 40530cb963f0c6f2 407814c5726c92f2 3efa43ffe7d5e400 3ff0e4c429acd144",
    "ldo p0 c4 dense a1 4051e034f61639f9 40530cb96dea6839 407814c5726c92f2 3efa43ffe7d0bc00 3ff0e4c429a05a67",
    "ldo p1 c0 dense a0 4054010baff6c840 40567a81309cf6a4 40913bb49f95ea11 3f00e10d4b33d200 3feebfea7f593b9d",
    "ldo p1 c0 dense a1 4054010c8dea05cb 40567a8156f04319 40913bb49f95ea11 3f00e10d4b206c00 3feebfea7e871148",
    "ldo p1 c1 dense a0 40521f712866591c 40566cb03bc4ccac 40913bb49f95ea11 3f00bea28c443c00 3febb7b397fd32c6",
    "ldo p1 c1 dense a1 40521f71286657f6 40566cb03bc4cc1f 40913bb49f95ea11 3f00bea28c448000 3febb7b397fd2b55",
    "ldo p1 c2 dense a0 c07104c8ee8468c6 4056800000000000 40913bb49f95ea11 3eedba01a7bec426 0000000000000000",
    "ldo p1 c2 dense a1 c06da0a55e2c71f8 4056800000000000 40913bb49f95ea11 3eedba01a7c01739 3a7b7e3d8d72113f",
    "ldo p1 c3 dense a0 4053570264ffdf8e 405673a316e8c409 40913bb49f95ea11 3f01c046db6ecc00 3ff0eb133e87723e",
    "ldo p1 c3 dense a1 40535702650540a2 405673a316e9aaa5 40913bb49f95ea11 3f01c046db6e5000 3ff0eb133e8744ff",
    "ldo p1 c4 dense a0 err:no-convergence",
    "ldo p1 c4 dense a1 405597270caf0ed4 40568d3c62e36b82 40913bb49f95ea11 3f011dbde9cc2e00 3ff0e73eed14f3c1",
    "ldo p2 c0 dense a0 40515445ea5322c8 405671d6437726c9 409bffddbe3d5691 3edde4d81170f000 3feeb4e1836e6f14",
    "ldo p2 c0 dense a1 40515445e480e96e 405671d642a83248 409bffddbe3d5691 3edde4d8128e7000 3feeb4e1851c2e1a",
    "ldo p2 c1 dense a0 404ee64c87783bd1 405676faa923464f 409bffddbe3d5691 3edbf3c4886b0000 3feb9e8b9aa30af9",
    "ldo p2 c1 dense a1 404ee64cd630582d 405676faab65f0c1 409bffddbe3d5691 3edbf3c4888f5000 3feb9e8b9ad7f10b",
    "ldo p2 c2 dense a0 c072c00000000000 4056800000000000 409bffddbe3d5691 3eb4354da5e9f4e5 0000000000000000",
    "ldo p2 c2 dense a1 c071a65d51a4b2b1 4056800000000000 409bffddbe3d5691 3eb4354da5f5c8f4 b96ee105d3fe03f2",
    "ldo p2 c3 dense a0 4050ab342ce23d71 40566c7b7720f055 409bffddbe3d5691 3ee029c994c34800 3ff0e2df3c03039a",
    "ldo p2 c3 dense a1 4050ab342db3445c 40566c7b77d10005 409bffddbe3d5691 3ee029c9960d9800 3ff0e2df3dec5839",
    "ldo p2 c4 dense a0 4052ea1df1029113 405673f2448c9d50 409bffddbe3d5691 3edfe663dfc41000 3ff0e477eb1044a4",
    "ldo p2 c4 dense a1 4052ea1df3ff01a4 405673f244c4c060 409bffddbe3d5691 3edfe663dffe3000 3ff0e477eb3d4273",
    "ldo p0 c0 sparse a0 40504a3089b65525 40537aa1f95db1f1 407814c5726c92f2 3ef9c90c5d7a4000 3feeb636c2c49188",
    "ldo p0 c0 sparse a1 40504a3089b654a8 40537aa1f95dafde 407814c5726c92f2 3ef9c90c5d7a9c00 3feeb636c2c48eef",
    "ldo p0 c1 sparse a0 404cd1b5a3d631bf 405419c9e94be42d 407814c5726c92f2 3ef9740c15360c00 3feba207a7b96fb8",
    "ldo p0 c1 sparse a1 404cd1b5a3d6424a 405419c9e94be87c 407814c5726c92f2 3ef9740c1535b800 3feba207a7b95f9c",
    "ldo p0 c2 sparse a0 c072c00000000000 4056800000000000 407814c5726c92f2 3ee5770a532fcd7d 0000000000000000",
    "ldo p0 c2 sparse a1 c0701d400676aabc 4056800000000000 407814c5726c92f2 3ee5770a533111fd b96ec54577188135",
    "ldo p0 c3 sparse a0 404f41de08f561e6 4053a6d6dbed1247 407814c5726c92f2 3efb30259b49d400 3ff0e3e96ab5f22a",
    "ldo p0 c3 sparse a1 404f41de08ce70ed 4053a6d6db8748b5 407814c5726c92f2 3efb30259b248400 3ff0e3e96a56d5e6",
    "ldo p0 c4 sparse a0 4051e034f00e575e 40530cb963f0c6f2 407814c5726c92f2 3efa43ffe7d5e400 3ff0e4c429acd144",
    "ldo p0 c4 sparse a1 4051e034f61639f9 40530cb96dea6839 407814c5726c92f2 3efa43ffe7d0bc00 3ff0e4c429a05a67",
    "ldo p1 c0 sparse a0 4054010baff6c840 40567a81309cf6a4 40913bb49f95ea11 3f00e10d4b33d200 3feebfea7f593b9b",
    "ldo p1 c0 sparse a1 4054010c8dea05cb 40567a8156f04319 40913bb49f95ea11 3f00e10d4b206c00 3feebfea7e871148",
    "ldo p1 c1 sparse a0 40521f712866591a 40566cb03bc4ccac 40913bb49f95ea11 3f00bea28c443c00 3febb7b397fd32c6",
    "ldo p1 c1 sparse a1 40521f71286657f6 40566cb03bc4cc1f 40913bb49f95ea11 3f00bea28c448000 3febb7b397fd2b55",
    "ldo p1 c2 sparse a0 c07104c8ee8468c6 4056800000000000 40913bb49f95ea11 3eedba01a7bec426 0000000000000000",
    "ldo p1 c2 sparse a1 c06da0a55e2c71f8 4056800000000000 40913bb49f95ea11 3eedba01a7c01739 3a7b7e3d8d72113f",
    "ldo p1 c3 sparse a0 4053570264ffdf8e 405673a316e8c409 40913bb49f95ea11 3f01c046db6ecc00 3ff0eb133e87723e",
    "ldo p1 c3 sparse a1 40535702650540a2 405673a316e9aaa5 40913bb49f95ea11 3f01c046db6e5000 3ff0eb133e8744ff",
    "ldo p1 c4 sparse a0 err:no-convergence",
    "ldo p1 c4 sparse a1 405597270caf0ed4 40568d3c62e36b82 40913bb49f95ea11 3f011dbde9cc2e00 3ff0e73eed14f3c1",
    "ldo p2 c0 sparse a0 40515445ea5322c8 405671d6437726c9 409bffddbe3d5691 3edde4d81170f000 3feeb4e1836e6f14",
    "ldo p2 c0 sparse a1 40515445e480e96e 405671d642a83248 409bffddbe3d5691 3edde4d8128e7000 3feeb4e1851c2e1a",
    "ldo p2 c1 sparse a0 404ee64c87783bd1 405676faa923464f 409bffddbe3d5691 3edbf3c4886b0000 3feb9e8b9aa30af9",
    "ldo p2 c1 sparse a1 404ee64cd630582d 405676faab65f0c1 409bffddbe3d5691 3edbf3c4888f5000 3feb9e8b9ad7f10b",
    "ldo p2 c2 sparse a0 c072c00000000000 4056800000000000 409bffddbe3d5691 3eb4354da5e9f4e5 0000000000000000",
    "ldo p2 c2 sparse a1 c071a65d51a4b2b1 4056800000000000 409bffddbe3d5691 3eb4354da5f5c8f4 b96ee105d3fe03f2",
    "ldo p2 c3 sparse a0 4050ab342ce23d71 40566c7b7720f055 409bffddbe3d5691 3ee029c994c34800 3ff0e2df3c03039a",
    "ldo p2 c3 sparse a1 4050ab342db3445c 40566c7b77d10005 409bffddbe3d5691 3ee029c9960d9800 3ff0e2df3dec5839",
    "ldo p2 c4 sparse a0 4052ea1df1029113 405673f2448c9d50 409bffddbe3d5691 3edfe663dfc41000 3ff0e477eb1044a4",
    "ldo p2 c4 sparse a1 4052ea1df3ff01a4 405673f244c4c060 409bffddbe3d5691 3edfe663dffe3000 3ff0e477eb3d4273",
];

/// The rows [`BUILTIN_GOLDENS`] pins, computed afresh.
fn builtin_rows() -> Vec<String> {
    let benches = [
        ("opamp45", TwoStageOpamp::bsim45().problem()),
        ("opamp22", TwoStageOpamp::bsim22().problem()),
        ("ldo", Ldo::n6().problem()),
    ];
    let corners = PvtSet::signoff5();
    let mut rows = Vec::new();
    for (name, problem) in benches {
        let problem = problem.unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut rng = StdRng::seed_from_u64(14);
        let points: Vec<Vec<f64>> = [
            problem.space.snap(&vec![0.5; problem.dim()]).unwrap(),
            problem.space.sample(&mut rng),
            problem.space.sample(&mut rng),
        ]
        .iter()
        .map(|u| problem.space.to_physical(u).unwrap())
        .collect();
        for solver in [SolverChoice::Dense, SolverChoice::Sparse] {
            problem.evaluator.set_solver(solver);
            for (p, x) in points.iter().enumerate() {
                for (c, corner) in corners.corners().iter().enumerate() {
                    for effort in [EvalEffort::default(), EvalEffort::attempt(1)] {
                        let got = match problem.evaluator.evaluate_with_effort(x, corner, effort) {
                            Ok(meas) => meas
                                .iter()
                                .map(|v| format!("{:016x}", v.to_bits()))
                                .collect::<Vec<_>>()
                                .join(" "),
                            Err(e) => format!("err:{}", FailureKind::classify(&e).label()),
                        };
                        rows.push(format!(
                            "{name} p{p} c{c} {} a{} {got}",
                            solver.label(),
                            effort.attempt
                        ));
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn builtin_benches_match_their_measurement_goldens_bitwise() {
    let got = builtin_rows();
    for (row, want) in got.iter().zip(BUILTIN_GOLDENS) {
        assert_eq!(row, want, "built-in measurements drifted");
    }
    assert_eq!(got.len(), BUILTIN_GOLDENS.len(), "rows:\n{}", got.join("\n"));
}

#[test]
fn sizing_decks_compile_and_match_midpoint_goldens_bitwise() {
    // The backend is pinned, not taken from `ASDEX_SOLVER`: each table
    // holds one backend's bits.
    for (solver, goldens) in
        [(SolverChoice::Dense, SIZING_GOLDENS), (SolverChoice::Sparse, SIZING_SPARSE_GOLDENS)]
    {
        for (file, want) in goldens {
            let path = Path::new("decks").join(file);
            let bench = NetlistBench::load(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
            // The digest the daemon journals is the digest of the shipped
            // source, stable under include expansion (none here).
            assert_eq!(
                bench.digest(),
                netlist_digest(bench.source()),
                "{file}: digest disagrees with its own source"
            );
            let problem = bench.problem().unwrap_or_else(|e| panic!("{file}: {e}"));
            problem.evaluator.set_solver(solver);
            let eval = problem.evaluate_normalized(&vec![0.5; problem.dim()], 0);
            let meas = eval
                .measurements
                .unwrap_or_else(|| panic!("{file}: midpoint fails: {:?}", eval.failure));
            let got: Vec<String> = meas.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
            let label = solver.label();
            assert_eq!(got, want.to_vec(), "{file} ({label}): midpoint measurements drifted");
        }
    }
}

#[test]
fn degenerate_ac_sweeps_in_a_deck_are_typed_sweep_errors() {
    // `asdex sim` on a deck whose `.ac`, `.tran` or `.dc` card has a
    // non-finite stop value, or asks for more points than can be
    // allocated, fails with the sweep error rather than a singular system,
    // an allocation abort or a spent solve budget.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, card) in [
        ("inf_stop", ".ac dec 10 1k 1e400"),
        ("huge_ppd", ".ac dec 1e9 1k 1meg"),
        ("tiny_tstep", ".tran 1e-15 1"),
        ("inf_tstop", ".tran 1n 1e400"),
        ("tiny_dc_step", ".dc V1 0 1 1e-15"),
    ] {
        let deck = dir.join(format!("degenerate_sweep_{name}.cir"));
        let source = format!("rc\nV1 in 0 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n{card}\n.end\n");
        std::fs::write(&deck, source).unwrap();
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_asdex"))
            .arg("sim")
            .arg(&deck)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{card}: {stderr}");
        assert!(stderr.contains("bad sweep"), "{card}: {stderr}");
    }
}

#[test]
fn sizing_decks_search_end_to_end() {
    // A short random-search campaign over every shipped deck: the cheap
    // proof that each compiles into a problem every agent can drive.
    for (file, _) in SIZING_GOLDENS {
        let bench = NetlistBench::load(&Path::new("decks").join(file)).unwrap();
        let problem = bench.problem().unwrap();
        let out =
            asdex::baselines::RandomSearch::new().search(&problem, SearchBudget::new(20), 1);
        assert!(out.simulations > 0, "{file}: search ran no simulations");
        assert_eq!(out.best_point.len(), problem.dim(), "{file}");
    }
}

#[test]
fn malformed_sizing_stanzas_are_typed_errors_never_panics() {
    let base = std::fs::read_to_string("decks/bandgap_reference.sp").unwrap();
    // Each row mutates the known-good deck one way; every mutant must
    // fail `compile` with a typed error (or, for the last rows, still
    // compile — the mutation is legal) without panicking.
    let mutants: &[(&str, &str)] = &[
        (".process 45", ".process 13"),
        (".process 45", ".process"),
        (".process 45", ""),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam rsrc 5e4 5e2 STEP 64"),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam rsrc xx 5e4 STEP 64"),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam rsrc 5e2 5e4 STEP 0"),
        (
            ".sizeparam rsrc 5e2 5e4 STEP 64",
            ".sizeparam rsrc 5e2 5e4 STEP 64\n.sizeparam rsrc 5e2 5e4 STEP 64",
        ),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam rsrc 5e2 5e4 STEP nope"),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam"),
        (".goal gain_db <= -45", ".goal gain_db ~= -45"),
        (".goal gain_db <= -45", ".goal resistance <= -45"),
        (".goal gain_db <= -45", ".goal gain_db <= banana"),
        ("ROUT out 0 {rout}", "ROUT out 0 {undeclared}"),
        ("M1 n1 n1 0 0 nch W={w_n} L=1.8e-7", "M1 n1 n1 0 0 nch W={w_n}"),
    ];
    for (from, to) in mutants {
        assert!(base.contains(from), "mutation target {from:?} missing from base deck");
        let mutated = base.replace(from, to);
        let result = std::panic::catch_unwind(|| NetlistBench::compile(&mutated));
        let compiled = result.unwrap_or_else(|_| panic!("compile panicked on {to:?}"));
        assert!(compiled.is_err(), "mutant {to:?} compiled");
        let msg = compiled.err().unwrap().to_string();
        assert!(!msg.is_empty(), "empty error for {to:?}");
    }
    // Goal-less and axis-less decks are rejected with a naming error.
    let no_goals: String =
        base.lines().filter(|l| !l.starts_with(".goal")).collect::<Vec<_>>().join("\n");
    assert!(NetlistBench::compile(&no_goals).unwrap_err().to_string().contains("goal"));
    let no_axes: String =
        base.lines().filter(|l| !l.starts_with(".sizeparam")).collect::<Vec<_>>().join("\n");
    assert!(NetlistBench::compile(&no_axes).is_err());
}
