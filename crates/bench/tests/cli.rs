//! End-to-end tests for the command-line tools.

use std::io::Write;
use std::process::{Command, Stdio};

const DEMO: &str = "
class Box {
    Object value;
    void set(Object v) { this.value = v; }
    Object get() { return this.value; }
}
class Main {
    public static void main(String[] args) {
        Box b = new Box();
        Object o = new Object();
        b.set(o);
        Object r = b.get();
    }
}
";

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ctxform-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

#[test]
fn analyze_runs_on_minijava_source() {
    let path = write_temp("demo.mj", DEMO);
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args([
            path.to_str().unwrap(),
            "--config",
            "2-object+H",
            "--abstraction",
            "tstring",
            "--query",
            "Main.main::r",
        ])
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2-object+H/transformer strings"),
        "{stdout}"
    );
    assert!(
        stdout.contains("pts(Main.main::r) = [\"Main.main/new Object#1\"]"),
        "{stdout}"
    );
}

#[test]
fn analyze_accepts_all_abstractions_and_flags() {
    let path = write_temp("demo2.mj", DEMO);
    for extra in [
        vec!["--abstraction", "cstring", "--config", "1-call+H"],
        vec!["--abstraction", "ci"],
        vec![
            "--abstraction",
            "tstring",
            "--config",
            "2-hybrid+H",
            "--naive",
        ],
        vec!["--abstraction", "tstring", "--config", "1-object"],
    ] {
        let mut args = vec![path.to_str().unwrap()];
        args.extend(extra.iter().copied());
        let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
            .args(&args)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn analyze_rejects_bad_input() {
    let path = write_temp("broken.mj", "class { oops");
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .arg(path.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "no arguments should fail with usage");
}

#[test]
fn figure6_binary_runs_a_single_benchmark() {
    let out = Command::new(env!("CARGO_BIN_EXE_figure6"))
        .args(["--scale", "1", "--bench", "pmd"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pmd"));
    assert!(stdout.contains("Geometric-mean"));
}
