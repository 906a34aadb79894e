//! The `experiments` command line: `--help` succeeds on stdout, and every
//! flag or figure this binary does not have is refused with exit status 2
//! rather than silently accepted.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn help_prints_usage_on_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = experiments(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage: experiments"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn unknown_flags_figures_and_scales_exit_2() {
    for args in [
        &["fig7", "small", "--json", "out.json"][..],
        &["fig7", "small", "--threads", "2"],
        &["fig7", "small", "--baseline", "x.json"],
        &["fig7", "small", "--reference", "x.json"],
        &["fig7", "small", "--optimize", "bogus"],
        &["scaling", "small"],
        &["micro"],
        &["fig7", "1k"],
        &["fig7", "small", "medium"],
        &[],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}
