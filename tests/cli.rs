//! `asdex size` driven as a binary: what a run leaves in its journal.
//!
//! 1. **Refused before disk** — a spec the daemon's admission check
//!    refuses (unknown agent, bench, corner set or solver) exits 2 before
//!    any journal file exists, so no half-made journal is left for a
//!    later `--resume` to trip over.
//! 2. **The printout reads, never records** — the text report evaluates
//!    the best point on a problem with no journal attached, so a text run
//!    and a `--json` run of one campaign leave byte-identical journals,
//!    and resuming either replays every record it holds.
//! 3. **A netlist bench is admitted as the daemon admits it** — a deck
//!    path that journal metadata would mangle exits 2 before any journal
//!    exists, and a `netlist:<path>` bench journals its deck digest in
//!    either form, so resuming after the deck was edited is refused.
//! 4. **Every agent sizes the campaign's corner set** — a random
//!    campaign on `signoff5` evaluates every corner, and BO, which models
//!    one corner, is refused a multi-corner set before disk.
//! 5. **Every argument is read** — a flag the command does not take, or
//!    a positional argument beyond the ones it takes, exits 2 naming it
//!    before the command runs.
//! 6. **A resume runs its journal's campaign** — a bench, agent, seed,
//!    budget, corner set or journal that differs from the recorded one
//!    exits 2 naming the flag and the recorded value; repeating the
//!    recorded values is accepted.

use asdex::serve::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdex-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A sizing deck that ships with the repository.
const DECK: &str = "decks/two_stage_opamp_sized.sp";

fn asdex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asdex")).args(args).output().expect("asdex runs")
}

#[test]
fn refused_specs_exit_2_and_leave_no_journal() {
    let dir = temp_dir("refused");
    let refused: [&[&str]; 4] = [
        &["bowl2", "--agent", "dqn"],
        &["opamp99"],
        &["bowl2", "--corners", "weird"],
        &["bowl2", "--solver", "blas"],
    ];
    for (k, spec) in refused.into_iter().enumerate() {
        let journal = dir.join(format!("{k}.journal"));
        let path = journal.display().to_string();
        let mut args = vec!["size"];
        args.extend_from_slice(spec);
        args.extend_from_slice(&["--budget", "20", "--journal", &path]);
        let out = asdex(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec:?}: {stderr}");
        assert!(stderr.contains("unknown"), "{spec:?}: {stderr}");
        assert!(!journal.exists(), "{spec:?} left a journal behind");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(left.is_empty(), "refused runs wrote {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn text_and_json_runs_leave_byte_identical_journals() {
    let dir = temp_dir("printout");
    let run = |name: &str, json: bool| -> (Output, Vec<u8>) {
        let journal = dir.join(name);
        let path = journal.display().to_string();
        let mut args = vec!["size", "opamp45", "--agent", "random", "--budget", "40"];
        args.extend_from_slice(&["--seed", "3", "--journal", &path]);
        if json {
            args.push("--json");
        }
        let out = asdex(&args);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        (out, std::fs::read(&journal).expect("journal written"))
    };
    let (text, text_journal) = run("text.journal", false);
    let (json, json_journal) = run("json.journal", true);
    assert!(text_journal == json_journal, "the text printout wrote into the journal");

    // The journal holds exactly the evaluations the campaign reported.
    let doc = Json::parse(String::from_utf8_lossy(&json.stdout).trim()).expect("JSON outcome");
    let recorded = doc.get("journal").and_then(|j| j.get("recorded")).and_then(Json::as_u64);
    let lines = json_journal.split(|&b| b == b'\n').filter(|l| l.starts_with(b"E ")).count();
    assert_eq!(recorded, Some(lines as u64));

    // Resuming the text run's journal replays every record, warns about
    // none, and prints the same report.
    let path = dir.join("text.journal").display().to_string();
    let resumed = asdex(&["size", "--resume", &path]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume: {stderr}");
    assert!(!stderr.contains("never requested"), "resume: {stderr}");
    assert_eq!(resumed.stdout, text.stdout, "resumed report differs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unjournalable_netlist_paths_exit_2_and_leave_no_journal() {
    let dir = temp_dir("mangled");
    for (k, name) in ["my deck.sp", "a=b.sp"].into_iter().enumerate() {
        let deck = dir.join(name);
        std::fs::copy(DECK, &deck).expect("deck ships with the repo");
        let deck = deck.display().to_string();
        let positional = format!("netlist:{deck}");
        let forms: [&[&str]; 2] = [&["--netlist", &deck], &[&positional]];
        for (form, bench) in forms.into_iter().enumerate() {
            let journal = dir.join(format!("{k}-{form}.journal"));
            let path = journal.display().to_string();
            let mut args = vec!["size"];
            args.extend_from_slice(bench);
            args.extend_from_slice(&["--agent", "random", "--budget", "10", "--journal", &path]);
            let out = asdex(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("cannot be journaled"), "{args:?}: {stderr}");
            assert!(!journal.exists(), "{args:?} left a journal behind");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_positional_netlist_bench_journals_its_digest() {
    let dir = temp_dir("positional");
    let deck = dir.join("deck.sp");
    std::fs::copy(DECK, &deck).expect("deck ships with the repo");
    let bench = format!("netlist:{}", deck.display());
    let path = dir.join("b.journal").display().to_string();
    let out = asdex(&["size", &bench, "--agent", "random", "--budget", "10", "--journal", &path]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let journal = std::fs::read_to_string(&path).expect("journal written");
    let meta = journal.lines().find(|l| l.starts_with("M ")).expect("metadata line");
    assert!(meta.contains("netlist_digest="), "{meta}");

    // Edited after admission, the deck no longer matches its journal.
    let mut source = std::fs::read_to_string(&deck).expect("deck copied");
    source.push_str("* edited after the journal was made\n");
    std::fs::write(&deck, source).expect("deck edited");
    let resumed = asdex(&["size", "--resume", &path]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(1), "resume of an edited deck: {stderr}");
    assert!(stderr.contains("digest"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn random_sizes_every_corner_and_bo_refuses_a_multi_corner_set() {
    let dir = temp_dir("corners");
    let journal = dir.join("random.journal");
    let path = journal.display().to_string();
    let args = ["size", "opamp22", "--agent", "random", "--corners", "signoff5"];
    let out = asdex(&[&args[..], &["--budget", "300", "--seed", "1", "--journal", &path]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let lines: Vec<&str> = text.lines().filter(|l| l.starts_with("E ")).collect();
    // Each point fans out over all five corners (retries aside).
    for c in 0..5 {
        let at = lines.iter().filter(|l| l.starts_with(&format!("E c={c} "))).count();
        assert!(at * 10 >= lines.len(), "corner {c}: {at} of {} records", lines.len());
    }

    let journal = dir.join("bo.journal");
    let path = journal.display().to_string();
    let args = ["size", "opamp22", "--agent", "bo", "--corners", "signoff5", "--budget", "60"];
    let out = asdex(&[&args[..], &["--journal", &path]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("one corner"), "{stderr}");
    assert!(!journal.exists(), "a refused bo run left a journal behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_and_extra_arguments_exit_2_naming_them() {
    let cases: [(&[&str], &str); 7] = [
        (&["size", "bowl2", "--agent", "random", "--budget", "30", "--jurnal", "j"], "--jurnal"),
        (&["size", "bowl2", "--budgt", "10"], "--budgt"),
        (&["size", "bowl2", "--budget=10"], "--budget=10"),
        (&["size", "bowl2", "--budget", "30", "bowl3"], "\"bowl3\""),
        (&["probe", "bowl2", "--sample", "10"], "--sample"),
        (&["sim", "decks/rc_filter.cir", "extra"], "\"extra\""),
        (&["worker", "--bench", "bowl2", "--workers", "2"], "--workers"),
    ];
    for (args, named) in cases {
        let out = asdex(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} does not name {named}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    }
}

#[test]
fn resume_refuses_flags_that_differ_from_its_journal() {
    let dir = temp_dir("resume-flags");
    let path = dir.join("j.journal").display().to_string();
    let args = ["size", "bowl2", "--agent", "random", "--budget", "30", "--seed", "4"];
    let out = asdex(&[&args[..], &["--journal", &path]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let recorded = std::fs::read(&path).expect("journal written");

    let other = dir.join("other.journal").display().to_string();
    let quoted_path = format!("{path:?}");
    let conflicts: [(&[&str], &str, &str); 7] = [
        (&["--agent", "trm"], "--agent", "\"random\""),
        (&["--budget", "31"], "--budget", "30"),
        (&["--seed", "5"], "--seed", "4"),
        (&["--corners", "signoff5"], "--corners", "\"nominal\""),
        (&["--journal", &other], "--journal", &quoted_path),
        (&["bowl3"], "benchmark bowl3", "\"bowl2\""),
        (&["--netlist", DECK], "--netlist", "\"bowl2\""),
    ];
    for (extra, flag, value) in conflicts {
        let out = asdex(&[&["size", "--resume", &path][..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains(value), "{extra:?}: {stderr}");
    }
    assert!(std::fs::read(&path).unwrap() == recorded, "a refused resume touched the journal");

    // The recorded values themselves are accepted, and the run replays.
    let same = ["--agent", "random", "--budget", "030", "--seed", "4", "--corners", "nominal"];
    let resume =
        [&["size", "bowl2", "--resume", &path, "--journal", &path][..], &same[..]].concat();
    let resumed = asdex(&resume);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{stderr}");
    assert_eq!(resumed.stdout, out.stdout, "the resumed report differs");
    let _ = std::fs::remove_dir_all(&dir);
}
