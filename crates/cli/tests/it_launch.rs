//! End-to-end `dakc launch`: real OS processes over TCP (and the
//! loopback backend) must write byte-identical TSV to the serial
//! `dakc count` path on the same input.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dakc")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dakc-it-launch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run(args: &[&str]) {
    run_capture(args);
}

/// Like [`run`] but returns the command's stdout.
fn run_capture(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "dakc {:?} failed:\n{}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Generates a small synthetic dataset (once: the tests run in parallel
/// and every rank of every launch reads its own slice of this one file)
/// and returns its path.
fn dataset() -> PathBuf {
    static FQ: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    FQ.get_or_init(|| {
        let fq = tmp("reads.fastq");
        run(&[
            "generate",
            "--dataset",
            "Synthetic 20",
            "--scale-shift",
            "15",
            "-o",
            fq.to_str().unwrap(),
        ]);
        fq
    })
    .clone()
}

/// Runs `dakc` expecting it to exit on its own well before `deadline`.
/// Returns the exit status, captured stderr (workers inherit the
/// launcher's stderr pipe, so their diagnostics land here too), and the
/// launcher's pid. Panics if the process outlives the deadline — a
/// failed launch must tear itself down, not hang.
fn run_to_exit(args: &[&str], deadline: Duration) -> (std::process::ExitStatus, String, u32) {
    let child = Command::new(bin())
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let pid = child.id();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(child.wait_with_output());
    });
    match rx.recv_timeout(deadline) {
        Ok(out) => {
            let out = out.unwrap();
            (out.status, String::from_utf8_lossy(&out.stderr).into_owned(), pid)
        }
        Err(_) => {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            panic!("dakc {args:?} still running after {deadline:?}");
        }
    }
}

#[test]
fn launch_chaos_die_fails_fast_naming_dead_rank() {
    let fq = dataset();
    let out_tsv = tmp("die.tsv");
    let (status, stderr, pid) = run_to_exit(
        &[
            "launch", fq.to_str().unwrap(), "-k", "21", "--ranks", "4", "--backend", "tcp",
            "--chaos-profile", "die:2@5", "--chaos-seed", "1",
            "-o", out_tsv.to_str().unwrap(),
        ],
        Duration::from_secs(60),
    );
    assert!(!status.success(), "launch with a dying rank must fail");
    assert!(stderr.contains("rank 2"), "stderr must name the dead rank:\n{stderr}");
    // The launcher removed its rendezvous dir even on the failure path.
    let dir = std::env::temp_dir().join(format!("dakc-rendezvous-{pid}"));
    assert!(!dir.exists(), "stale rendezvous dir left behind: {}", dir.display());
}

#[test]
fn launch_supervisor_catches_frozen_rank() {
    let fq = dataset();
    let out_tsv = tmp("freeze.tsv");
    // A frozen rank exits no syscall and closes no socket: only the
    // heartbeat deadline can catch it. Tight --net-timeout keeps the
    // supervisor's stale limit (half the collective deadline) short.
    let (status, stderr, _) = run_to_exit(
        &[
            "launch", fq.to_str().unwrap(), "-k", "21", "--ranks", "4", "--backend", "tcp",
            "--chaos-profile", "freeze:1@5", "--net-timeout", "3",
            "-o", out_tsv.to_str().unwrap(),
        ],
        Duration::from_secs(60),
    );
    assert!(!status.success(), "launch with a frozen rank must fail");
    assert!(stderr.contains("rank 1"), "stderr must name the frozen rank:\n{stderr}");
}

#[test]
fn launch_recover_survives_scripted_death_matching_serial() {
    let fq = dataset();
    let serial = tmp("recover_serial.tsv");
    run(&[
        "count", fq.to_str().unwrap(), "-k", "21", "--threads", "2", "-o",
        serial.to_str().unwrap(),
    ]);
    // Words and spans: the replay re-extracts through the same producer as
    // the parse, owner-filtered by k-mer or by minimizer.
    for mode in [None, Some("--superkmer")] {
        let name = mode.unwrap_or("words").trim_start_matches('-');
        let dist = tmp(&format!("recover_{name}.tsv"));
        let metrics = tmp(&format!("recover_{name}_metrics.json"));
        // Same scripted death as launch_chaos_die_fails_fast_naming_dead_rank,
        // but with --recover: the launcher must respawn rank 2 as incarnation
        // 1, the survivors must replay its owned k-mers, and the job must
        // exit 0 with output byte-identical to the serial count.
        let mut args = vec![
            "launch", fq.to_str().unwrap(), "-k", "21", "--ranks", "4", "--backend", "tcp",
            "--chaos-profile", "die:2@10", "--chaos-seed", "1",
            "--recover", "--max-respawns", "3",
            "-o", dist.to_str().unwrap(), "--metrics", metrics.to_str().unwrap(),
        ];
        args.extend(mode);
        let (status, stderr, pid) = run_to_exit(&args, Duration::from_secs(120));
        assert!(status.success(), "{name}: --recover launch must survive a scripted death:\n{stderr}");
        assert!(
            stderr.contains("recover: rank 2"),
            "{name}: launcher must narrate the respawn of rank 2:\n{stderr}"
        );
        let want = std::fs::read(&serial).unwrap();
        let got = std::fs::read(&dist).unwrap();
        assert!(!want.is_empty());
        assert_eq!(got, want, "{name}: recovered TCP output differs from serial");
        // The recovery left its fingerprints in the merged metrics: the
        // survivors reconnected to the replacement and replayed its keys.
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("net.recoveries"), "{name}: {m}");
        assert!(m.contains("net.replayed_kmers"), "{name}: {m}");
        if mode.is_some() {
            assert!(m.contains("net.superkmer.spans"), "{name}: spans must carry the data: {m}");
        }
        let dir = std::env::temp_dir().join(format!("dakc-rendezvous-{pid}"));
        assert!(!dir.exists(), "stale rendezvous dir left behind: {}", dir.display());
    }
}

#[test]
fn launch_tcp_matches_serial_count() {
    let fq = dataset();
    let serial = tmp("serial.tsv");
    run(&[
        "count", fq.to_str().unwrap(), "-k", "21", "--threads", "2", "-o",
        serial.to_str().unwrap(),
    ]);
    let dist = tmp("tcp.tsv");
    let metrics = tmp("tcp_metrics.json");
    run(&[
        "launch", fq.to_str().unwrap(), "-k", "21", "--ranks", "4", "--backend", "tcp", "-o",
        dist.to_str().unwrap(), "--metrics", metrics.to_str().unwrap(),
    ]);
    let want = std::fs::read(&serial).unwrap();
    let got = std::fs::read(&dist).unwrap();
    assert!(!want.is_empty());
    assert_eq!(got, want, "4-process TCP output differs from serial");
    // Transport telemetry rode along in the merged metrics export.
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("net.frames_sent"), "{m}");
    assert!(m.contains("net.term_rounds"), "{m}");
}

#[test]
fn launch_tcp_trace_merges_ranks_on_one_clock() {
    use dakc_sim::telemetry::json::{self, JsonValue};
    let fq = dataset();
    let dist = tmp("traced.tsv");
    let trace = tmp("net_trace.json");
    run(&[
        "launch", fq.to_str().unwrap(), "-k", "21", "--ranks", "4", "--backend", "tcp",
        "--trace", trace.to_str().unwrap(), "--trace-sample", "1",
        "-o", dist.to_str().unwrap(),
    ]);
    let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let ph = |e: &JsonValue| e.get("ph").and_then(JsonValue::as_str).unwrap().to_owned();
    let num = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_f64).unwrap();

    // Every rank contributed real (non-metadata) events to one merged
    // timeline: the per-rank ring buffers crossed the gather wire.
    let pids: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| ph(e) != "M")
        .map(|e| num(e, "pid") as u32)
        .collect();
    assert_eq!(pids, (0..4u32).collect(), "expected all 4 ranks as process tracks");

    // Post-alignment, each rank's events appear in its own recording
    // order: the global sort by timestamp must keep per-rank ts monotone.
    let mut last_ts = std::collections::HashMap::new();
    for e in events.iter().filter(|e| ph(e) != "M") {
        let pid = num(e, "pid") as u32;
        let ts = num(e, "ts");
        let prev = last_ts.insert(pid, ts).unwrap_or(f64::MIN);
        assert!(ts >= prev, "rank {pid} timestamps regressed: {prev} -> {ts}");
    }

    // Flow arrows: every finish ("f") pairs with a start ("s") of the
    // same id, at least one pair spans two ranks, and no arrow points
    // backwards in time beyond clock-estimation error (5 ms ≪ the
    // hundreds of ms of process-start skew alignment removes).
    let mut starts = std::collections::HashMap::new();
    for e in events {
        if e.get("cat").and_then(JsonValue::as_str) == Some("flow") && ph(e) == "s" {
            starts.insert(num(e, "id") as u64, (num(e, "pid") as u32, num(e, "ts")));
        }
    }
    let mut cross_rank = 0usize;
    let mut finishes = 0usize;
    for e in events {
        if e.get("cat").and_then(JsonValue::as_str) != Some("flow") || ph(e) != "f" {
            continue;
        }
        finishes += 1;
        let (src_pid, src_ts) =
            *starts.get(&(num(e, "id") as u64)).expect("flow finish without a start");
        assert!(num(e, "ts") >= src_ts - 5_000.0, "flow arrow points backwards in time");
        if num(e, "pid") as u32 != src_pid {
            cross_rank += 1;
        }
    }
    assert!(finishes > 0, "no flow arrows in a --trace-sample 1 run");
    assert!(cross_rank > 0, "no cross-rank flow arrows among {finishes}");
}

#[test]
fn launch_trace_feeds_analyze_end_to_end() {
    use dakc_sim::telemetry::json::{self, JsonValue};
    let fq = dataset();
    let dist = tmp("analyzed.tsv");
    let trace = tmp("analyze_trace.json");
    run(&[
        "launch", fq.to_str().unwrap(), "-k", "21", "--ranks", "4", "--backend", "tcp",
        "--trace", trace.to_str().unwrap(), "--trace-sample", "1",
        "-o", dist.to_str().unwrap(),
    ]);

    // Analyze the merged trace; the terminal report must cover all
    // three headline analytics on a real 4-process run.
    let art = tmp("analyze_art.json");
    let report = run_capture(&["analyze", trace.to_str().unwrap(), "--out", art.to_str().unwrap()]);
    assert!(report.contains("run: 4 rank(s)"), "{report}");
    assert!(report.contains("critical path:"), "{report}");
    assert!(report.contains("telescoping:"), "{report}");
    assert!(report.contains("comm matrix (4 ranks"), "{report}");
    assert!(report.contains("overlap"), "{report}");

    // The exported artifact is schema-valid and carries a sane overlap
    // fraction plus a full 4x4 traffic matrix.
    let body = std::fs::read_to_string(&art).unwrap();
    assert_eq!(dakc_bench::artifact::validate(&body).unwrap(), "analyze");
    let doc = json::parse(&body).unwrap();
    let counters = doc.get("metrics").and_then(|m| m.get("counters")).unwrap().clone();
    let get = |k: &str| counters.get(k).and_then(JsonValue::as_f64);
    for rank in 0..4 {
        let bp = get(&format!("analyze.rank{rank}.overlap_bp"))
            .unwrap_or_else(|| panic!("rank {rank} missing overlap counter:\n{body}"));
        assert!((0.0..=10_000.0).contains(&bp), "rank {rank} overlap {bp} bp");
    }
    let off_diag: f64 = (0..4)
        .flat_map(|s| (0..4).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d)
        .filter_map(|(s, d)| get(&format!("net.rank{s}.to{d}.bytes_sent")))
        .sum();
    assert!(off_diag > 0.0, "no cross-rank traffic in exported matrix:\n{body}");

    // Re-analysis is deterministic and the artifact self-diffs clean.
    let art2 = tmp("analyze_art2.json");
    run(&["analyze", trace.to_str().unwrap(), "--out", art2.to_str().unwrap()]);
    assert_eq!(body, std::fs::read_to_string(&art2).unwrap(), "re-analysis changed the artifact");
    run(&["analyze", "--diff", art.to_str().unwrap(), art2.to_str().unwrap()]);
}

#[test]
fn launch_loopback_and_single_rank_match_serial() {
    let fq = dataset();
    let serial = tmp("serial_lo.tsv");
    run(&[
        "count", fq.to_str().unwrap(), "-k", "17", "--threads", "2", "--canonical", "-o",
        serial.to_str().unwrap(),
    ]);
    let want = std::fs::read(&serial).unwrap();
    for (ranks, backend, out_name) in
        [("3", "loopback", "lo3.tsv"), ("1", "tcp", "tcp1.tsv"), ("1", "loopback", "lo1.tsv")]
    {
        let dist = tmp(out_name);
        run(&[
            "launch", fq.to_str().unwrap(), "-k", "17", "--canonical", "--ranks", ranks,
            "--backend", backend, "-o", dist.to_str().unwrap(),
        ]);
        let got = std::fs::read(&dist).unwrap();
        assert_eq!(got, want, "{backend} ranks={ranks} differs from serial");
    }
}

/// `dakc count` on `input`, as the bytes every launch must reproduce.
fn serial_count(input: &std::path::Path, k: &str, name: &str) -> Vec<u8> {
    let out = tmp(name);
    run(&["count", input.to_str().unwrap(), "-k", k, "--threads", "2", "-o", out.to_str().unwrap()]);
    let want = std::fs::read(&out).unwrap();
    assert!(!want.is_empty());
    want
}

#[test]
fn launch_tcp_ranks_parse_their_own_slices() {
    // Three reads: at 5 ranks at least two slices are empty, and no rank
    // ever sees the whole file.
    let fq = tmp("three.fastq");
    std::fs::write(
        &fq,
        "@a\nACGTACGGTTACAGGACCATGGACCAGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIII\n\
         @b\nTTGACCATGGACCAGTACGTACGGTTAC\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIII\n\
         @c\nGGACCAGTAACCGGTTACGTACG\n+\nIIIIIIIIIIIIIIIIIIIIIII\n",
    )
    .unwrap();
    // A wrapped FASTA with CRLF endings: records span lines, slices cut
    // mid-record and resynchronise on '>'.
    let fa = tmp("wrapped.fasta");
    let mut text = String::new();
    for (i, seq) in ["ACGTACGGTTACAGGACCATGGACCAGTAACCGGTTACGTACG", "TTGACCATGGACC", "GGACCAGTAACCGGTTACGTACGACGTACGGTTACAGG"]
        .iter()
        .cycle()
        .take(12)
        .enumerate()
    {
        text.push_str(&format!(">contig{i} wrapped\r\n"));
        for line in seq.as_bytes().chunks(10) {
            text.push_str(std::str::from_utf8(line).unwrap());
            text.push_str("\r\n");
        }
    }
    std::fs::write(&fa, text).unwrap();
    for (input, tag) in [(&fq, "three"), (&fa, "fasta")] {
        let want = serial_count(input, "11", &format!("{tag}_serial.tsv"));
        for ranks in ["3", "5"] {
            let dist = tmp(&format!("{tag}_{ranks}.tsv"));
            run(&[
                "launch", input.to_str().unwrap(), "-k", "11", "--ranks", ranks, "--backend",
                "tcp", "-o", dist.to_str().unwrap(),
            ]);
            assert_eq!(std::fs::read(&dist).unwrap(), want, "{tag}: {ranks} ranks differ from count");
        }
    }
}

#[test]
fn launch_recover_replays_a_sliced_input() {
    // The respawned rank 1 re-loads the same byte-range slice its dead
    // incarnation had; the survivors replay out of their own slices.
    let fq = dataset();
    let want = serial_count(&fq, "21", "recover_sliced_serial.tsv");
    let dist = tmp("recover_sliced.tsv");
    let (status, stderr, _) = run_to_exit(
        &[
            "launch", fq.to_str().unwrap(), "-k", "21", "--ranks", "3", "--backend", "tcp",
            "--chaos-profile", "die:1@10", "--chaos-seed", "1", "--recover",
            "-o", dist.to_str().unwrap(),
        ],
        Duration::from_secs(120),
    );
    assert!(status.success(), "--recover launch must survive a scripted death:\n{stderr}");
    assert!(stderr.contains("recover: rank 1"), "rank 1 must have been respawned:\n{stderr}");
    assert_eq!(std::fs::read(&dist).unwrap(), want, "recovered output differs from serial");
}

#[test]
fn launch_malformed_record_is_reported_by_the_rank_that_owns_it() {
    // 30 equal records; the 16th — in the middle third, rank 1's slice of
    // 3 — has a short quality line. The launcher itself parses nothing.
    let good = "@r\nACGTACGGTTACAGGACCATGG\n+\nIIIIIIIIIIIIIIIIIIIIII\n";
    let bad = "@r\nACGTACGGTTACAGGACCATGG\n+\nIIII\n";
    let text = format!("{}{bad}{}", good.repeat(15), good.repeat(14));
    let bad_line = 15 * good.len() + bad.find("IIII").unwrap();
    let fq = tmp("malformed.fastq");
    std::fs::write(&fq, text).unwrap();
    let (status, stderr, _) = run_to_exit(
        &[
            "launch", fq.to_str().unwrap(), "-k", "11", "--ranks", "3", "--backend", "tcp",
            "-o", tmp("malformed.tsv").to_str().unwrap(),
        ],
        Duration::from_secs(60),
    );
    assert!(!status.success(), "a malformed record must fail the launch");
    assert!(
        stderr.contains(&format!("rank 1: {}: byte {bad_line}: quality length 4", fq.display())),
        "the owning rank must name the byte offset {bad_line}:\n{stderr}"
    );
    assert!(stderr.contains("launch failed: rank 1"), "the launcher must blame rank 1:\n{stderr}");
}
