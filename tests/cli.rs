//! The `ompdart` binary's command line, driven as a user drives it: where
//! each verb writes its output, what it prints, and how it refuses a bad
//! command line (exit code 1 and an `error:` line).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A bundled source file.
fn asset(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/suite/assets")
        .join(name)
}

/// An empty scratch directory of this test's own.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ompdart-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ompdart<I, S>(args: I) -> Output
where
    I: IntoIterator<Item = S>,
    S: AsRef<std::ffi::OsStr>,
{
    Command::new(env!("CARGO_BIN_EXE_ompdart"))
        .args(args)
        .output()
        .expect("the ompdart binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One input goes to stdout, or with `-o` to that file: the same bytes.
#[test]
fn one_input_goes_to_stdout_or_to_the_o_file() {
    let dir = scratch("one-input");
    let input = asset("hotspot_unoptimized.c");
    let printed = ompdart(["analyze".as_ref(), input.as_os_str()]);
    assert!(printed.status.success(), "{printed:?}");
    assert!(stdout(&printed).contains("#pragma omp target data"));

    let file = dir.join("hotspot.c");
    let written = ompdart([
        "analyze".as_ref(),
        input.as_os_str(),
        "-o".as_ref(),
        file.as_os_str(),
    ]);
    assert!(written.status.success(), "{written:?}");
    assert!(stdout(&written).is_empty(), "{}", stdout(&written));
    assert_eq!(read(&file), stdout(&printed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--plan-json -` prints the plan document, and is refused while the
/// rewrite would go to stdout too.
#[test]
fn plan_json_on_stdout_needs_the_rewrite_elsewhere() {
    let dir = scratch("plan-json");
    let input = asset("hotspot_unoptimized.c");
    let refused = ompdart([
        "analyze".as_ref(),
        input.as_os_str(),
        "--plan-json".as_ref(),
        "-".as_ref(),
    ]);
    assert_eq!(refused.status.code(), Some(1), "{refused:?}");
    assert!(
        stderr(&refused).contains("error: `--plan-json -` would interleave the plan JSON"),
        "{}",
        stderr(&refused)
    );

    let file = dir.join("hotspot.c");
    let planned = ompdart([
        "analyze".as_ref(),
        input.as_os_str(),
        "-o".as_ref(),
        file.as_os_str(),
        "--plan-json".as_ref(),
        "-".as_ref(),
    ]);
    assert!(planned.status.success(), "{planned:?}");
    assert!(stdout(&planned).contains("\"version\": 4"));
    assert!(read(&file).contains("#pragma omp target data"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Several inputs link as one program, each unit's rewrite written to
/// `<stem>.mapped.c` in `--out-dir`.
#[test]
fn several_inputs_link_into_the_out_dir() {
    let dir = scratch("linked");
    let units = ["lulesh_mf_mesh", "lulesh_mf_eos", "lulesh_mf_main"];
    let mut args = vec!["analyze".into(), "--out-dir".into(), dir.clone()];
    args.extend(units.iter().map(|unit| asset(&format!("{unit}.c"))));
    let out = ompdart(&args);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stderr(&out).contains("linked 3 unit(s) as one program: 15 kernel(s)"),
        "{}",
        stderr(&out)
    );
    for unit in units {
        assert!(read(&dir.join(format!("{unit}.mapped.c"))).contains("#pragma omp target"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One input with `--out-dir` is written where several would be, and holds
/// what `-o` writes.
#[test]
fn one_input_with_out_dir_writes_what_o_writes() {
    let dir = scratch("one-out-dir");
    let input = asset("hotspot_unoptimized.c");
    let file = dir.join("by-o.c");
    let by_o = ompdart([
        "analyze".as_ref(),
        input.as_os_str(),
        "-o".as_ref(),
        file.as_os_str(),
    ]);
    assert!(by_o.status.success(), "{by_o:?}");
    let out_dir = dir.join("out");
    let by_dir = ompdart([
        "analyze".as_ref(),
        input.as_os_str(),
        "--out-dir".as_ref(),
        out_dir.as_os_str(),
    ]);
    assert!(by_dir.status.success(), "{by_dir:?}");
    assert!(stdout(&by_dir).is_empty(), "{}", stdout(&by_dir));
    assert_eq!(
        read(&out_dir.join("hotspot_unoptimized.mapped.c")),
        read(&file)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `batch` analyzes each file as a program of its own: two files that each
/// define `main` both succeed.
#[test]
fn batch_analyzes_each_file_alone() {
    let dir = scratch("batch");
    let out = ompdart([
        "batch".as_ref(),
        asset("hotspot_unoptimized.c").as_os_str(),
        asset("nw_unoptimized.c").as_os_str(),
        "--out-dir".as_ref(),
        dir.as_os_str(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("2/2 unit(s) analyzed successfully"),
        "{}",
        stdout(&out)
    );
    for stem in ["hotspot_unoptimized", "nw_unoptimized"] {
        assert!(read(&dir.join(format!("{stem}.mapped.c"))).contains("#pragma omp target"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `explain` prints each construct with the fact that forced it.
#[test]
fn explain_justifies_each_construct() {
    let out = ompdart([
        "explain".as_ref(),
        asset("hotspot_unoptimized.c").as_os_str(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("fact=read_before_write_on_device"),
        "{}",
        stdout(&out)
    );
}

/// An unknown flag and a flag without its value: exit code 1 and the
/// message.
#[test]
fn a_bad_command_line_exits_1_with_its_message() {
    let input = asset("hotspot_unoptimized.c");
    for (args, message) in [
        (
            vec!["analyze", "--frobnicate"],
            "error: unknown flag `--frobnicate`",
        ),
        (
            vec!["analyze", "--out-dir"],
            "error: `--out-dir` expects a directory",
        ),
        (vec!["analyze", "-o"], "error: `-o` expects a path"),
        (
            vec!["batch", "--threads"],
            "error: `--threads` expects a number",
        ),
        (
            vec!["batch", "--threads", "many"],
            "error: `--threads` expects a number",
        ),
        (
            vec!["explain", "--pessimistic-globals"],
            "error: unknown flag `--pessimistic-globals`",
        ),
        (
            vec!["analyze", "--lifetimes"],
            "error: unknown flag `--lifetimes`",
        ),
        (
            vec!["explain", "--lifetimes"],
            "error: unknown flag `--lifetimes`",
        ),
        (vec!["watch", "a", "b"], "error: unexpected argument `b`"),
        (
            vec!["cache", "gc", "--max-bytes"],
            "error: `--max-bytes` expects a size",
        ),
        (
            vec!["daemon", "--workers", "many"],
            "error: `--workers` expects a number",
        ),
    ] {
        let mut command = args.clone();
        if args[0] != "watch" && args[0] != "cache" && args[0] != "daemon" {
            command.insert(1, input.to_str().unwrap());
        }
        let out = ompdart(&command);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {out:?}");
        assert!(
            stderr(&out).contains(message),
            "{command:?}: {}",
            stderr(&out)
        );
    }
}

/// A cache directory of store-format-3 files is not read: the run plans
/// (no `plan=0.000ms` under `--timings`) and writes a pack beside them, and
/// `cache gc` counts the pack's two records (the unit's plans and its
/// interface) and the three v3 files, evicts the v3 files and leaves the
/// pack alone.
#[test]
fn v3_store_files_are_not_read_and_leave_through_gc() {
    let dir = scratch("v3-store");
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let h = "00000000000000aa";
    let v3 = [
        (
            format!("unit-{h}-{h}-{h}-{h}.json"),
            "{\"store_version\": 3}\n",
        ),
        (format!("fn-{h}-{h}-{h}.json"), "{\"store_version\": 3}\n"),
        (
            format!("ref-{h}-{h}-{h}.ref"),
            &*format!("unit-{h}-{h}-{h}-{h}.json\n"),
        ),
    ];
    for (file, text) in &v3 {
        std::fs::write(cache.join(file), text).unwrap();
    }
    let out = dir.join("v3-out.c");
    let run = ompdart([
        "analyze".as_ref(),
        asset("hotspot_unoptimized.c").as_os_str(),
        "-o".as_ref(),
        out.as_os_str(),
        "--cache-dir".as_ref(),
        cache.as_os_str(),
        "--timings".as_ref(),
    ]);
    assert!(run.status.success(), "{run:?}");
    let printed = format!("{}{}", stdout(&run), stderr(&run));
    assert!(printed.contains("plan="), "no timings: {printed}");
    assert!(!printed.contains("plan=0.000ms"), "{printed}");
    let entries = || -> Vec<String> {
        let listed = std::fs::read_dir(&cache).unwrap();
        let mut names: Vec<String> = (listed.map(|e| e.unwrap().file_name()))
            .map(|name| name.to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    assert_eq!(entries().len(), 4, "{:?}", entries());

    let gc = ompdart(["cache".as_ref(), "gc".as_ref(), cache.as_os_str()]);
    assert!(gc.status.success(), "{gc:?}");
    assert!(
        stdout(&gc).contains("5 entr(ies) before, evicted 3 "),
        "{}",
        stdout(&gc)
    );
    assert_eq!(entries(), ["ompdart.pack"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The two option combinations: `OmpDartOptions { pessimistic_globals }`
/// on the command line.
const OPTION_COMBINATIONS: [&[&str]; 2] = [&[], &["--pessimistic-globals"]];

/// `ompdart analyze <input> -o <out> --simulate` under `flags`: exit 0 and
/// `output preserved: yes` on stderr, or the test fails with what it
/// printed.
fn assert_simulate_preserves_output(input: &Path, out: &Path, flags: &[&str]) {
    let mut args: Vec<&std::ffi::OsStr> = vec![
        "analyze".as_ref(),
        input.as_os_str(),
        "-o".as_ref(),
        out.as_os_str(),
        "--simulate".as_ref(),
    ];
    args.extend(flags.iter().map(std::ffi::OsStr::new));
    let run = ompdart(args);
    assert!(
        run.status.success() && stderr(&run).contains("output preserved: yes"),
        "{} {flags:?}:\n{}",
        input.display(),
        stderr(&run)
    );
}

/// Nine ports × two option combinations: `--simulate` runs the input and
/// its rewrite, and exits 1 when their outputs differ. The 18 runs share up
/// to four worker threads: two ports' simulations take seconds each.
#[test]
fn every_port_keeps_its_output_under_every_option_combination() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let dir = scratch("combinations");
    let listed = std::fs::read_dir(asset("")).unwrap();
    let mut ports: Vec<PathBuf> = (listed.map(|entry| entry.unwrap().path()))
        .filter(|path| path.to_string_lossy().ends_with("_unoptimized.c"))
        .collect();
    ports.sort();
    let runs: Vec<(&Path, &[&str])> = (ports.iter())
        .flat_map(|port| OPTION_COMBINATIONS.map(|flags| (port.as_path(), flags)))
        .collect();
    let (next, passed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let out = dir.join(format!("combo-{worker}.c"));
            let (runs, next, passed) = (&runs, &next, &passed);
            scope.spawn(move || {
                while let Some(&(port, flags)) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    assert_simulate_preserves_output(port, &out, flags);
                    passed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(passed.into_inner(), 18);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wrapper that hands data to a callee with no summary, between two
/// kernels: a global, a parameter, and the parameter with the wrapper in
/// another unit. The first two run under `--simulate`; the linked program's
/// rewrites, concatenated, must print what its sources print.
#[test]
fn a_wrapper_around_an_unknown_callee_keeps_its_output_under_every_option_combination() {
    let dir = scratch("wrappers");
    let wrappers = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/wrappers");
    let out = dir.join("combo.c");
    for flags in OPTION_COMBINATIONS {
        for program in ["clear_global.c", "clear_param.c"] {
            assert_simulate_preserves_output(&wrappers.join(program), &out, flags);
        }
        let units = ["main", "clear"];
        let mut args = vec!["analyze".into(), "--out-dir".into(), dir.clone()];
        args.extend(
            units
                .iter()
                .map(|unit| wrappers.join(format!("linked/{unit}.c"))),
        );
        args.extend(flags.iter().map(PathBuf::from));
        let run = ompdart(&args);
        assert!(run.status.success(), "{flags:?}: {run:?}");
        let concat = |suffix: &str, dir: &Path| -> String {
            (units.iter())
                .map(|unit| read(&dir.join(format!("{unit}{suffix}"))))
                .collect()
        };
        let printed = |program: &str| {
            let run = ompdart_sim::simulate_source(program, ompdart_sim::SimConfig::default());
            run.expect("the program runs").output
        };
        let sources = concat(".c", &wrappers.join("linked"));
        let mapped = concat(".mapped.c", &dir);
        assert_eq!(printed(&mapped), printed(&sources), "{flags:?}:\n{mapped}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
