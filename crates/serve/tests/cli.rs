//! The `ndlog` command line: `--help` succeeds on stdout; a command it
//! does not have is refused with exit status 2.

use std::process::{Command, Output};

fn ndlog(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ndlog"))
        .args(args)
        .output()
        .expect("ndlog binary runs")
}

#[test]
fn help_prints_usage_on_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = ndlog(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage: ndlog"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn unknown_commands_exit_2() {
    for args in [&["bench", "--sessions", "1"][..], &["bogus"], &[]] {
        let out = ndlog(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
