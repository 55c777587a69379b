//! The `ompdart` binary's command line, driven as a user drives it: where
//! each verb writes its output, what it prints, and how it refuses a bad
//! command line (exit code 1 and an `error:` line). The long-lived verbs,
//! `watch` and `daemon`, run as children whose output lines are read with a
//! deadline: a test waits on what the child says, never on a clock.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A bundled source file.
fn asset(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/suite/assets")
        .join(name)
}

/// An empty scratch directory of one test's own, removed when the test ends,
/// by a failed assertion too.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = PathBuf;
    fn deref(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(test: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("ompdart-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
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

/// The units of the linked `lulesh_mf` port, by stem, in link order.
const LULESH_MF: [&str; 3] = ["lulesh_mf_mesh", "lulesh_mf_eos", "lulesh_mf_main"];

/// The files `<stem><suffix>` in `dir`, one after another.
fn concatenated(dir: &Path, stems: &[&str], suffix: &str) -> String {
    (stems.iter())
        .map(|stem| read(&dir.join(format!("{stem}{suffix}"))))
        .collect()
}

/// How many of `lines` are `wanted`.
fn count(lines: &[String], wanted: impl Fn(&str) -> bool) -> usize {
    lines.iter().filter(|line| wanted(line)).count()
}

/// Whether `line` holds each of `parts` in order, with at least one
/// character between two of them: the regular expression `a.+b.+c`.
fn in_order(line: &str, parts: &[&str]) -> bool {
    let mut rest = line;
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            let mut chars = rest.chars();
            if chars.next().is_none() {
                return false;
            }
            rest = chars.as_str();
        }
        match rest.find(part) {
            Some(at) => rest = &rest[at + part.len()..],
            None => return false,
        }
    }
    true
}

/// Replace the first `from` in `file` with `to` as an editor saves: the new
/// text is written beside the file and renamed over it, so a `watch` scan
/// never reads it half written.
fn edit(file: &Path, from: &str, to: &str) {
    let text = read(file);
    assert!(text.contains(from), "{}: no `{from}`", file.display());
    let staged = file.with_extension("c.edit");
    std::fs::write(&staged, text.replacen(from, to, 1)).unwrap();
    std::fs::rename(&staged, file).unwrap();
}

/// How long a test waits for a child's next expected line, or for its exit.
/// Only a failing run waits this long.
const DEADLINE: Duration = Duration::from_secs(120);

/// A long-lived `ompdart` child (`watch`, `daemon`, a client of the daemon).
/// Two threads read its stdout and stderr lines and hand them over as they
/// arrive. Dropping it kills and reaps the process, so a failed assertion
/// ends it too.
struct Running {
    child: Child,
    lines: mpsc::Receiver<String>,
    readers: Vec<std::thread::JoinHandle<()>>,
    seen: Vec<String>,
}

impl Running {
    fn spawn<I, S>(args: I) -> Running
    where
        I: IntoIterator<Item = S>,
        S: AsRef<std::ffi::OsStr>,
    {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ompdart"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the ompdart binary starts");
        let (send, lines) = mpsc::channel();
        let forward = |stream: Box<dyn std::io::Read + Send>, send: mpsc::Sender<String>| {
            std::thread::spawn(move || {
                let lines = std::io::BufRead::lines(std::io::BufReader::new(stream));
                for line in lines.map_while(Result::ok) {
                    if send.send(line).is_err() {
                        break;
                    }
                }
            })
        };
        let readers = vec![
            forward(Box::new(child.stdout.take().unwrap()), send.clone()),
            forward(Box::new(child.stderr.take().unwrap()), send),
        ];
        let seen = Vec::new();
        Running {
            child,
            lines,
            readers,
            seen,
        }
    }

    /// The next line, or the reason there is none: the deadline passed, or
    /// the child closed both streams.
    fn next_line(&self, deadline: Instant) -> Result<String, mpsc::RecvTimeoutError> {
        (self.lines).recv_timeout(deadline.saturating_duration_since(Instant::now()))
    }

    /// Read lines until `times` of all those seen are `wanted`.
    fn wait_for(&mut self, times: usize, wanted: impl Fn(&str) -> bool) {
        let deadline = Instant::now() + DEADLINE;
        while count(&self.seen, &wanted) < times {
            match self.next_line(deadline) {
                Ok(line) => self.seen.push(line),
                Err(why) => panic!(
                    "{why:?} before {times} expected line(s), after:\n{}",
                    self.seen.join("\n")
                ),
            }
        }
    }

    /// Read the child's output to its end and reap it: every line it
    /// printed, once it has exited 0.
    fn finish(mut self) -> Vec<String> {
        let deadline = Instant::now() + DEADLINE;
        loop {
            match self.next_line(deadline) {
                Ok(line) => self.seen.push(line),
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(why) => panic!("{why:?} before exit, after:\n{}", self.seen.join("\n")),
            }
        }
        for reader in self.readers.drain(..) {
            reader.join().expect("a reader thread ends with its stream");
        }
        let status = self.child.wait().expect("the child is reaped");
        assert!(status.success(), "{status}:\n{}", self.seen.join("\n"));
        std::mem::take(&mut self.seen)
    }

    /// SIGTERM, as an operator stops `watch` or the daemon: it flushes its
    /// store and exits 0. Every line it printed.
    fn terminate(self) -> Vec<String> {
        extern "C" {
            fn kill(pid: i32, signal: i32) -> i32;
        }
        let pid = i32::try_from(self.child.id()).expect("a pid fits an i32");
        // SAFETY: `kill` reads no memory of ours. The child is not reaped
        // yet, so `pid` still names it and no other process.
        assert_eq!(unsafe { kill(pid, ompdart_server::signal::SIGTERM) }, 0);
        self.finish()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The streams closed with the child, so the readers end.
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
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
}

/// Several inputs link as one program, each unit's rewrite written to
/// `<stem>.mapped.c` in `--out-dir`: every call resolved, and the outputs,
/// concatenated, are the rewrite of the concatenated sources byte for byte.
#[test]
fn several_inputs_link_into_the_out_dir() {
    let dir = scratch("linked");
    let mut args = vec!["analyze".into(), "--out-dir".into(), dir.clone()];
    args.extend(LULESH_MF.map(|unit| asset(&format!("{unit}.c"))));
    let out = ompdart(&args);
    assert!(out.status.success(), "{out:?}");
    for line in [
        "linked 3 unit(s) as one program: 15 kernel(s)",
        " 0 unknown-callee fallback(s), link passes",
    ] {
        assert!(stderr(&out).contains(line), "{}", stderr(&out));
    }
    for unit in LULESH_MF {
        assert!(read(&dir.join(format!("{unit}.mapped.c"))).contains("#pragma omp target"));
    }
    assert!(read(&dir.join("lulesh_mf_main.mapped.c")).contains("#pragma omp target data"));

    let sources = dir.join("concat.c");
    std::fs::write(&sources, concatenated(&asset(""), &LULESH_MF, ".c")).unwrap();
    let mapped = dir.join("concat.mapped.c");
    let alone = ompdart([
        "analyze".as_ref(),
        sources.as_os_str(),
        "-o".as_ref(),
        mapped.as_os_str(),
    ]);
    assert!(alone.status.success(), "{alone:?}");
    assert!(
        concatenated(&dir, &LULESH_MF, ".mapped.c") == read(&mapped),
        "linked != concatenated"
    );
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
        (vec!["watch", "a", "--once"], "error: unknown flag `--once`"),
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
}

/// The two option combinations: `OmpDartOptions { pessimistic_globals }`
/// on the command line.
const OPTION_COMBINATIONS: [&[&str]; 2] = [&[], &["--pessimistic-globals"]];

/// `ompdart analyze <input> -o <out> --simulate` under `flags`: exit 0 and
/// `output preserved: yes` on stderr, or the test fails with what it
/// printed. Returns that stderr.
fn assert_simulate_preserves_output(input: &Path, out: &Path, flags: &[&str]) -> String {
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
    stderr(&run)
}

/// What `program` prints on the simulator.
fn printed(program: &str) -> Vec<String> {
    let run = ompdart_sim::simulate_source(program, ompdart_sim::SimConfig::default());
    run.expect("the program runs").output
}

/// The nine single-file ports, `crates/suite/assets/*_unoptimized.c`, in
/// name order.
fn ports() -> Vec<PathBuf> {
    let listed = std::fs::read_dir(asset("")).unwrap();
    let mut ports: Vec<PathBuf> = (listed.map(|entry| entry.unwrap().path()))
        .filter(|path| path.to_string_lossy().ends_with("_unoptimized.c"))
        .collect();
    ports.sort();
    ports
}

/// Nine ports × two option combinations: the binary's rewrite of each port
/// under each combination prints what the port prints. Each port is
/// simulated once, here; its two rewrites after it. The ports share up to
/// four worker threads: two ports' simulations take seconds each.
#[test]
fn every_port_keeps_its_output_under_every_option_combination() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let dir = scratch("combinations");
    let ports = ports();
    let (next, passed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let out = dir.join(format!("combo-{worker}.c"));
            let (ports, next, passed) = (&ports, &next, &passed);
            scope.spawn(move || {
                while let Some(port) = ports.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let expected = printed(&read(port));
                    for flags in OPTION_COMBINATIONS {
                        let mut args: Vec<&std::ffi::OsStr> = vec![
                            "analyze".as_ref(),
                            port.as_os_str(),
                            "-o".as_ref(),
                            out.as_os_str(),
                        ];
                        args.extend(flags.iter().map(std::ffi::OsStr::new));
                        let run = ompdart(args);
                        let at = format!("{} {flags:?}", port.display());
                        assert!(run.status.success(), "{at}:\n{}", stderr(&run));
                        assert_eq!(printed(&read(&out)), expected, "{at}");
                        passed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(passed.into_inner(), 18);
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
        let sources = concatenated(&wrappers.join("linked"), &units, ".c");
        let mapped = concatenated(&dir, &units, ".mapped.c");
        assert_eq!(printed(&mapped), printed(&sources), "{flags:?}:\n{mapped}");
    }
}

// ---------------------------------------------------------------------------
// Every report of one analysis, and the plan document of every port
// ---------------------------------------------------------------------------

/// `analyze` with every report of a single input at once: the rewrite holds
/// a region, the plan document is format 4, and `--simulate` keeps the
/// output. `diff-plan` follows diff(1) exit codes: hotspot's expert maps
/// scalars the tool passes `firstprivate`, so it exits exactly 1, a
/// divergence; 2 would be a tool failure.
#[test]
fn hotspot_with_every_report_diverges_from_its_expert() {
    let dir = scratch("hotspot-reports");
    let (mapped, plan) = (dir.join("hotspot_mapped.c"), dir.join("hotspot_plan.json"));
    let run = ompdart([
        "analyze".as_ref(),
        asset("hotspot_unoptimized.c").as_os_str(),
        "-o".as_ref(),
        mapped.as_os_str(),
        "--plan-json".as_ref(),
        plan.as_os_str(),
        "--simulate".as_ref(),
        "--timings".as_ref(),
    ]);
    assert!(run.status.success(), "{run:?}");
    assert!(read(&mapped).contains("#pragma omp target data"));
    assert!(read(&plan).contains("\"version\": 4"));

    let diff = ompdart([
        "diff-plan".as_ref(),
        plan.as_os_str(),
        asset("hotspot_expert.c").as_os_str(),
    ]);
    assert_eq!(diff.status.code(), Some(1), "{diff:?}");
}

/// The plan document the binary writes for each single-file port is its
/// golden, byte for byte.
#[test]
fn every_ports_plan_json_is_its_golden() {
    let dir = scratch("plan-goldens");
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plans");
    for port in ports() {
        let name = port.file_name().unwrap().to_string_lossy();
        let stem = name.trim_end_matches("_unoptimized.c");
        let plan = dir.join(format!("{stem}.plan.json"));
        let run = ompdart([
            "analyze".as_ref(),
            port.as_os_str(),
            "-o".as_ref(),
            dir.join(format!("{stem}_mapped.c")).as_os_str(),
            "--plan-json".as_ref(),
            plan.as_os_str(),
        ]);
        assert!(run.status.success(), "{stem}: {run:?}");
        let golden = goldens.join(format!("{stem}.plan.json"));
        assert!(
            read(&plan) == read(&golden),
            "{stem}: plan JSON moved off its golden"
        );
    }
}

/// A program only the preprocessor makes analyzable: `#if 0x0` around a
/// syntax error, `#if (N >> 3) == 8` choosing an array size, a macro with
/// arguments inside a kernel.
const PREPROCESSOR_PROBE: &str = r#"#include <stdio.h>
#define N 64
#define IDX(i, j) ((i) * 2 + (j))
#if 0x0
this is a syntax error(
#endif
#if (N >> 3) == 8
#define LEN 128
#else
#define LEN 4
#endif
double a[LEN];
int main() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < N; i++) {
    a[IDX(i, 0)] = i * 2.0;
    a[IDX(i, 1)] = i + 1.0;
  }
  double s = 0.0;
  for (int i = 0; i < LEN; i++) s += a[i];
  printf("%f\n", s);
  return 0;
}
"#;

/// The preprocessor probe maps its kernel and keeps its output, and leaves
/// no diagnostic beside the report: with `-o` both go to stderr.
#[test]
fn a_program_that_needs_the_preprocessor_maps_without_a_diagnostic() {
    let dir = scratch("preprocessor");
    let (probe, mapped) = (dir.join("pp_probe.c"), dir.join("pp_probe_mapped.c"));
    std::fs::write(&probe, PREPROCESSOR_PROBE).unwrap();
    let reported = assert_simulate_preserves_output(&probe, &mapped, &[]);
    assert!(
        read(&mapped).contains("#pragma omp target teams distribute parallel for map("),
        "{}",
        read(&mapped)
    );
    for word in ["unsupported #if", "warning", "error"] {
        assert!(!reported.contains(word), "`{word}`:\n{reported}");
    }
}

// ---------------------------------------------------------------------------
// The persistent store: one unit, every port, a restart of forty files
// ---------------------------------------------------------------------------

/// The regular files under `dir`, at any depth, by name.
fn regular_files(dir: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let listed = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in listed.map(Result::unwrap) {
        let kind = entry.file_type().unwrap();
        if kind.is_dir() {
            files.extend(regular_files(&entry.path()));
        } else if kind.is_file() {
            files.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    files.sort();
    files
}

/// One input through the store is a one-unit program in the same session
/// and store: a cold and a warm run write what a run without a cache
/// directory writes, the warm run plans nothing, and its pack neither grows
/// nor splits into a second file.
#[test]
fn a_single_input_through_the_store_is_byte_identical_and_served_warm() {
    let dir = scratch("one-store");
    let cache = dir.join("cache");
    let analyze = |out: &str, with: &[&str]| {
        let mut args = vec![
            "analyze".into(),
            asset("hotspot_unoptimized.c"),
            "-o".into(),
            dir.join(out),
        ];
        args.extend(with.iter().map(PathBuf::from));
        let run = ompdart(&args);
        assert!(run.status.success(), "{out}: {run:?}");
        (
            read(&dir.join(out)),
            format!("{}{}", stdout(&run), stderr(&run)),
        )
    };
    let cache_flag = cache.to_str().unwrap();
    let (plain, _) = analyze("one-plain.c", &[]);
    let (cold, _) = analyze("one-cold.c", &["--cache-dir", cache_flag]);
    assert_eq!(regular_files(&cache), ["ompdart.pack"]);
    let pack = || std::fs::metadata(cache.join("ompdart.pack")).unwrap().len();
    let before = pack();
    let (warm, printed) = analyze("one-warm.c", &["--cache-dir", cache_flag, "--timings"]);
    assert!(printed.contains("plan=0.000ms"), "{printed}");
    assert!(
        plain == cold,
        "a cold run through the store changed the output"
    );
    assert!(
        cold == warm,
        "a warm run through the store changed the output"
    );
    assert_eq!(pack(), before);
    assert_eq!(regular_files(&cache), ["ompdart.pack"]);
}

/// A unit alone is a one-unit program: every port writes the same bytes
/// with `-o`, with `--out-dir`, and linked with an empty unit.
#[test]
fn every_port_writes_the_same_bytes_alone_to_out_dir_and_beside_an_empty_unit() {
    let dir = scratch("one-unit");
    let empty = dir.join("empty.c");
    std::fs::write(&empty, "").unwrap();
    let (out_dir, linked_dir) = (dir.join("one-out"), dir.join("one-linked"));
    for port in ports() {
        let stem = port.file_stem().unwrap().to_string_lossy().into_owned();
        let alone = dir.join(format!("one-{stem}.c"));
        let runs: [Vec<&std::ffi::OsStr>; 3] = [
            vec![port.as_os_str(), "-o".as_ref(), alone.as_os_str()],
            vec![port.as_os_str(), "--out-dir".as_ref(), out_dir.as_os_str()],
            vec![
                port.as_os_str(),
                empty.as_os_str(),
                "--out-dir".as_ref(),
                linked_dir.as_os_str(),
            ],
        ];
        for args in runs {
            let run = ompdart(std::iter::once("analyze".as_ref()).chain(args));
            assert!(run.status.success(), "{stem}: {run:?}");
        }
        let mapped = format!("{stem}.mapped.c");
        assert!(
            read(&alone) == read(&out_dir.join(&mapped)),
            "{stem}: --out-dir"
        );
        assert!(
            read(&alone) == read(&linked_dir.join(&mapped)),
            "{stem}: linked"
        );
    }
}

/// File `f` of the restart program: a 400-stage call chain `main ->
/// stage_0 -> … -> stage_399`, ten stages to a file, every file carrying
/// the same guarded header with a `static` kernel function.
fn chain_file(f: usize) -> String {
    let mut text = String::from(
        "#ifndef RS_H\n#define RS_H\n#define N 64\nextern double acc[N];\nextern double aux[N];\n\
         static void touch(void) {\n  #pragma omp target teams distribute parallel for\n\
         \x20 for (int i = 0; i < N; i++) aux[i] += 0.5;\n  printf(\"%f\\n\", aux[0]);\n}\n#endif\n",
    );
    if f == 0 {
        text.push_str(
            "double acc[N];\ndouble aux[N];\nint main() {\n  touch();\n  stage_0();\n  \
             printf(\"%f\\n\", acc[0]);\n  return 0;\n}\n",
        );
    }
    for i in f * 10..f * 10 + 10 {
        text.push_str(&format!(
            "void stage_{i}(void) {{\n  acc[{}] += 1.0;\n",
            i % 64
        ));
        if i % 7 == 0 {
            text.push_str("  touch();\n");
        }
        if i < 399 {
            text.push_str(&format!("  stage_{}();\n", i + 1));
        }
        text.push_str("}\n");
    }
    text
}

/// A restart parses only what changed: populate the store, restart
/// unchanged, edit one file mid-chain, restart again. Every round writes
/// what a run without a cache directory writes, and the store stays one
/// pack of one unit and one interface record per file.
#[test]
fn a_restart_parses_only_what_changed() {
    let dir = scratch("restart");
    let (src, cache) = (dir.join("src"), dir.join("cache"));
    let (out, reference) = (dir.join("out"), dir.join("ref"));
    std::fs::create_dir_all(&src).unwrap();
    let files: Vec<PathBuf> = (0..40)
        .map(|f| {
            let file = src.join(format!("pack_{f:04}.c"));
            std::fs::write(&file, chain_file(f)).unwrap();
            file
        })
        .collect();
    let analyze = |out_dir: &Path, cached: bool| -> String {
        let mut args = vec!["analyze".into()];
        args.extend(files.iter().cloned());
        args.extend(["--out-dir".into(), out_dir.to_path_buf()]);
        if cached {
            args.extend(["--cache-dir".into(), cache.clone()]);
            args.extend(["--profile-json".into(), "-".into()]);
        }
        let run = ompdart(&args);
        assert!(run.status.success(), "{run:?}");
        stdout(&run)
    };
    let parsed = |profile: &str| -> u64 {
        let at = profile.find("\"parsed_units\":").expect("parsed_units") + 15;
        let digits: String = profile[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    let same = || {
        for file in std::fs::read_dir(&reference)
            .unwrap()
            .map(|e| e.unwrap().path())
        {
            let name = file.file_name().unwrap();
            assert!(read(&file) == read(&out.join(name)), "{name:?}");
        }
    };

    analyze(&reference, false);
    let populate = analyze(&out, true);
    assert!(populate.contains("\"parsed_units\":40,"), "{populate}");
    same();
    // Forty unit and forty interface records, and no third kind: `touch` is
    // a `static` function with a kernel in every file.
    let gc = ompdart(["cache".as_ref(), "gc".as_ref(), cache.as_os_str()]);
    assert!(gc.status.success(), "{gc:?}");
    assert!(
        stdout(&gc).contains(" 80 entr(ies) before, evicted 0 "),
        "{}",
        stdout(&gc)
    );

    let warm = analyze(&out, true);
    assert!(warm.contains("\"parsed_units\":0,"), "{warm}");
    assert!(warm.contains("\"warm_units\":40,"), "{warm}");
    same();

    // The edited file and the units its summary reaches are parsed, the
    // rest are not.
    edit(
        &files[20],
        "  acc[8] += 1.0;",
        "  acc[8] += 1.0;\n  aux[1] += 3.0;",
    );
    analyze(&reference, false);
    let edited = parsed(&analyze(&out, true));
    assert!((1..=39).contains(&edited), "{edited} unit(s) parsed");
    same();
    let again = analyze(&out, true);
    assert!(again.contains("\"parsed_units\":0,"), "{again}");
    same();
    assert_eq!(regular_files(&cache), ["ompdart.pack"]);
}

// ---------------------------------------------------------------------------
// watch: one session kept hot over a directory
// ---------------------------------------------------------------------------

/// A `watch` line that re-emits an output served as `label`.
fn re_emitted(line: &str, label: &str) -> bool {
    in_order(line, &["re-emitted ", &format!(" ({label})")])
}

/// One edit of one function re-emits its unit once: two emits in all, the
/// initial scan's and the edit's, both planned, and each scan parsed its one
/// unit. A fresh process over the same cache directory serves the unit from
/// the store and plans nothing.
#[test]
fn watch_re_emits_an_edited_unit_once_and_restarts_from_the_store() {
    let dir = scratch("watch");
    let (src, cache) = (dir.join("src"), dir.join("cache"));
    std::fs::create_dir_all(&src).unwrap();
    let demo = src.join("demo.c");
    std::fs::copy(asset("incremental_demo.c"), &demo).unwrap();
    let args: [&std::ffi::OsStr; 4] = [
        "watch".as_ref(),
        src.as_os_str(),
        "--cache-dir".as_ref(),
        cache.as_os_str(),
    ];
    let mut watch = Running::spawn(
        args.iter()
            .chain(&["--interval-ms".as_ref(), "100".as_ref()]),
    );
    watch.wait_for(1, |line| line.contains("re-emitted"));
    edit(&demo, "grid[i] = 0.001 * i;", "grid[i] = 0.001 * i + 0.0;");
    watch.wait_for(2, |line| line.contains("re-emitted"));
    let log = watch.terminate();
    let printed = log.join("\n");
    assert_eq!(count(&log, |l| l.contains("re-emitted")), 2, "{printed}");
    assert_eq!(count(&log, |l| re_emitted(l, "planned")), 2, "{printed}");
    assert!(
        log.iter().any(|l| l.ends_with(", 2 unit(s) parsed")),
        "{printed}"
    );

    let warm = ompdart(args.iter().chain(&["--iterations".as_ref(), "1".as_ref()]));
    assert!(warm.status.success(), "{warm:?}");
    let log: Vec<String> = stdout(&warm).lines().map(String::from).collect();
    assert!(log.iter().any(|l| re_emitted(l, "store")), "{log:#?}");
    assert_eq!(count(&log, |l| l.contains("(planned)")), 0, "{log:#?}");
}

/// The prelude both files of the cross-file watch program share.
const TWO_H: &str = "#ifndef TWO_H\n#define TWO_H\n#define N 64\nextern double buf[N];\n\
                     void smooth(double *p, int n);\nvoid run_steps();\n#endif\n";

/// An edit that changes a unit's interface re-plans the unit that calls
/// into it, and so does deleting it, whose output goes with it. Then the
/// cache directory holds one file, the pack, and a cap nothing fits under
/// leaves none.
#[test]
fn watch_re_plans_across_files_and_a_deleted_input_takes_its_output() {
    let dir = scratch("watch-cross-file");
    let (src, cache) = (dir.join("src"), dir.join("cache"));
    std::fs::create_dir_all(&src).unwrap();
    let (helpers, driver) = (src.join("helpers.c"), src.join("driver.c"));
    let helpers_body = "double buf[N];\nvoid smooth(double *p, int n) {\n  \
                        for (int i = 1; i < n - 1; i++) p[i] = p[i] * 0.5;\n}\nint main() {\n  \
                        for (int i = 0; i < N; i++) buf[i] = i;\n  run_steps();\n  \
                        printf(\"%f\\n\", buf[3]);\n  return 0;\n}\n";
    let driver_body = "void run_steps() {\n  for (int s = 0; s < 4; s++) {\n    \
                       #pragma omp target teams distribute parallel for\n    \
                       for (int i = 0; i < N; i++) buf[i] += 1.0;\n    smooth(buf, N);\n  }\n}\n";
    std::fs::write(&helpers, format!("{TWO_H}{helpers_body}")).unwrap();
    std::fs::write(&driver, format!("{TWO_H}{driver_body}")).unwrap();
    let mut watch = Running::spawn([
        "watch".as_ref(),
        src.as_os_str(),
        "--cache-dir".as_ref(),
        cache.as_os_str(),
        "--interval-ms".as_ref(),
        "100".as_ref(),
    ]);
    let driver_emits = |line: &str| line.contains("driver.c: re-emitted");
    watch.wait_for(1, |line| line.contains("helpers.c: re-emitted"));
    // `smooth` becomes write-only: its interface changes.
    edit(&helpers, "p[i] = p[i] * 0.5;", "p[i] = 0.25;");
    watch.wait_for(2, driver_emits);
    // Deleting helpers.c takes `smooth` out of the program: driver.c's call
    // to it falls back to the pessimistic assumption.
    std::fs::remove_file(&helpers).unwrap();
    watch.wait_for(3, driver_emits);
    let log = watch.terminate();
    let printed = log.join("\n");
    assert_eq!(count(&log, driver_emits), 3, "{printed}");
    let planned = |line: &str| driver_emits(line) && re_emitted(line, "planned");
    assert_eq!(count(&log, planned), 3, "{printed}");
    let removed = src.join("helpers.mapped.c");
    assert!(!removed.exists());
    let logged = format!("helpers.c: removed {}", removed.display());
    assert!(log.iter().any(|l| l.contains(&logged)), "{printed}");

    assert_eq!(regular_files(&cache), ["ompdart.pack"]);
    let gc = ompdart([
        "cache".as_ref(),
        "gc".as_ref(),
        cache.as_os_str(),
        "--max-bytes".as_ref(),
        "1".as_ref(),
    ]);
    assert!(gc.status.success(), "{gc:?}");
    assert!(stdout(&gc).contains("entr(ies) before, evicted"), "{gc:?}");
    assert_eq!(std::fs::read_dir(&cache).unwrap().count(), 0);
}

// ---------------------------------------------------------------------------
// daemon and client: analysis as a service
// ---------------------------------------------------------------------------

/// `ompdart daemon` on a unix socket over `cache`, once it says it listens.
fn daemon(socket: &Path, cache: &Path) -> Running {
    let mut daemon = Running::spawn([
        "daemon".as_ref(),
        "--socket".as_ref(),
        socket.as_os_str(),
        "--cache-dir".as_ref(),
        cache.as_os_str(),
    ]);
    let listening = format!("listening on unix:{}", socket.display());
    daemon.wait_for(1, |line| line.contains(&listening));
    use std::os::unix::fs::FileTypeExt;
    assert!(std::fs::metadata(socket).unwrap().file_type().is_socket());
    daemon
}

/// `ompdart client <verb> …` against the daemon at `socket`, started.
fn client(socket: &Path, verb: &[&std::ffi::OsStr]) -> Running {
    let mut args = vec!["client".as_ref(), "--socket".as_ref(), socket.as_os_str()];
    args.extend_from_slice(verb);
    Running::spawn(args)
}

/// `client analyze` of the three `lulesh_mf` units as `program`, written to
/// `out` when given.
fn analyze_lulesh_mf(socket: &Path, program: &str, out: Option<&Path>) -> Running {
    let units = LULESH_MF.map(|unit| asset(&format!("{unit}.c")));
    let mut verb = vec!["--program".as_ref(), program.as_ref(), "analyze".as_ref()];
    verb.extend(units.iter().map(|unit| unit.as_os_str()));
    if let Some(out) = out {
        verb.extend(["--out-dir".as_ref(), out.as_os_str()]);
    }
    client(socket, &verb)
}

/// Two clients drive two programs concurrently: the first round plans, the
/// second is served warm from each program's own session, and the rewrite
/// is the one-shot CLI's. Nothing panicked, a hover finds its fact, and a
/// `shutdown` request drains, flushes and removes the socket, so a fresh
/// daemon over the same cache serves every unit from the store.
#[test]
fn the_daemon_serves_two_clients_warm_and_restarts_from_its_store() {
    let dir = scratch("daemon");
    let (socket, cache) = (dir.join("ompdartd.sock"), dir.join("cache"));
    let mut served = daemon(&socket, &cache);
    let round = || {
        let out = |program: &str| dir.join(format!("out-{program}"));
        let alpha = analyze_lulesh_mf(&socket, "alpha", Some(&out("alpha")));
        let beta = analyze_lulesh_mf(&socket, "beta", Some(&out("beta")));
        [alpha.finish(), beta.finish()]
    };
    for log in round() {
        assert!(log.iter().any(|l| l.contains("serve=planned")), "{log:#?}");
    }
    for log in round() {
        assert_eq!(count(&log, |l| l.contains("serve=cached")), 3, "{log:#?}");
        assert!(log.iter().any(|l| l.contains("plan_misses=0")), "{log:#?}");
    }
    served.wait_for(1, |line| {
        in_order(
            line,
            &["analyze program=alpha", "serves=[cached, cached, cached]"],
        )
    });

    let oneshot = dir.join("out-oneshot");
    let mut args = vec!["analyze".into(), "--out-dir".into(), oneshot.clone()];
    args.extend(LULESH_MF.map(|unit| asset(&format!("{unit}.c"))));
    let run = ompdart(&args);
    assert!(run.status.success(), "{run:?}");
    let main = "lulesh_mf_main.mapped.c";
    assert!(read(&dir.join("out-alpha").join(main)) == read(&oneshot.join(main)));

    let stats = client(&socket, &["stats".as_ref()]).finish();
    assert!(stats.iter().any(|l| l.ends_with("panics 0")), "{stats:#?}");
    let main_unit = asset("lulesh_mf_main.c");
    let hover = client(
        &socket,
        &[
            "--program".as_ref(),
            "alpha".as_ref(),
            "explain".as_ref(),
            main_unit.as_os_str(),
            "49".as_ref(),
            "8".as_ref(),
        ],
    )
    .finish();
    let fact = |l: &str| in_order(l, &[":49:8: ", " [", " / ", "]"]);
    assert!(hover.iter().any(|l| fact(l)), "{hover:#?}");

    client(&socket, &["shutdown".as_ref()]).finish();
    let log = served.finish();
    let flushed = "graceful shutdown: drained in-flight requests, flushed";
    assert!(log.iter().any(|l| l.contains(flushed)), "{log:#?}");
    assert!(!socket.exists(), "the socket outlived the daemon");

    let socket = dir.join("ompdartd2.sock");
    let restarted = daemon(&socket, &cache);
    let warm = analyze_lulesh_mf(&socket, "alpha", None).finish();
    assert_eq!(count(&warm, |l| l.contains("serve=store")), 3, "{warm:#?}");
    client(&socket, &["shutdown".as_ref()]).finish();
    restarted.finish();
}
