//! The standalone daemon binary. `ompdart daemon` is a thin alias for
//! this; both parse their flags with [`DaemonConfig::from_args`].

use ompdart_server::daemon::{DaemonConfig, DaemonHandle};

const USAGE: &str = "\
ompdartd - the OMPDart analysis daemon

USAGE:
  ompdartd [--socket PATH | --tcp ADDR] [OPTIONS]

OPTIONS:
  --socket PATH         Unix socket to listen on (default: ompdartd.sock)
  --tcp ADDR            Listen on a TCP address (e.g. 127.0.0.1:7171) instead
  --workers N           Width each program's analysis fans out over
                        (default: auto, from the machine's parallelism;
                        a larger N is capped at that, at most 8)
  --cache-dir DIR       Persistent store root; each program gets its own
                        subdirectory and survives daemon restarts
  --cache-max-bytes N   LRU size cap per program store (supports k/m/g suffix)
  --pessimistic-globals Assume unknown extern callees touch every global
  --quiet               Suppress per-request log lines
  -h, --help            Show this help

The daemon speaks length-prefixed JSON (see the README's \"Analysis as a
service\" section), serves each request on its connection's thread (one
connection's responses come back in request order), and shuts down
gracefully on SIGINT/SIGTERM or a `shutdown` request: in-flight requests
finish and every program's write-behind store buffer is flushed before
exit.";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "-h" || arg == "--help") {
        println!("{USAGE}");
        return;
    }
    let config = DaemonConfig::from_args(&args).unwrap_or_else(|message| fail(&message));
    let handle = DaemonHandle::spawn(config).unwrap_or_else(|e| {
        eprintln!("error: cannot start daemon: {e}");
        std::process::exit(1);
    });
    // Blocks until the accept loop observes shutdown (signal or request)
    // and has run its drain-and-flush epilogue.
    handle.join();
}
