//! Response-byte goldens for the `rlse-serve` binary. The fixture corpus
//! and the generated 200-request mixed corpus are served at `--workers 1`
//! and `--workers 4`, and each response stream must equal its committed
//! golden byte for byte. Repeat-determinism tests only prove a build agrees
//! with itself; these pin the bytes across builds, so a decoder or encoder
//! change that alters any response fails here.
//!
//! The goldens in `tests/golden/` are the verbatim output of
//! `rlse-serve --input <corpus>`; regenerate them only for an intended
//! response change, and record it in the changelog.

use std::path::{Path, PathBuf};
use std::process::Command;

const SERVE: &str = env!("CARGO_BIN_EXE_rlse-serve");

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Serve `input` at `workers` request workers and return the responses.
fn serve(input: &Path, workers: u32) -> String {
    let out = Command::new(SERVE)
        .arg("--input")
        .arg(input)
        .args(["--workers", &workers.to_string()])
        .output()
        .expect("spawn rlse-serve");
    assert!(
        out.status.success(),
        "exit: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("responses are UTF-8")
}

fn assert_matches_golden(input: &Path, name: &str) {
    let want = golden(name);
    for workers in [1, 4] {
        let got = serve(input, workers);
        for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{name} at --workers {workers}: line {}", n + 1);
        }
        assert_eq!(got, want, "{name} at --workers {workers}");
    }
}

#[test]
fn fixture_responses_match_the_golden() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/requests.jsonl");
    assert_matches_golden(&fixture, "fixture_responses.jsonl");
}

#[test]
fn generated_corpus_responses_match_the_golden() {
    let out = Command::new(SERVE)
        .args(["--emit-corpus", "200"])
        .output()
        .expect("spawn rlse-serve");
    assert!(out.status.success());
    let corpus: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_corpus200.jsonl");
    std::fs::write(&corpus, &out.stdout).expect("write corpus");
    assert_matches_golden(&corpus, "corpus200_responses.jsonl");
}
