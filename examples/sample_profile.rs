//! A sampling profiler for the simulator *inside* a run: where host time
//! goes when every layer competes for the same caches, which the outside-in
//! layer probes of `perfbench/` (each layer alone, cache-hot) cannot say.
//!
//! Runs one of the four perfbench cells in-process for a number of
//! repetitions under an `ITIMER_PROF` of 1 ms (the kernel fires it no faster
//! than its own tick, 4 ms on the CI box); every tick records the
//! interrupted instruction pointer and the chain of return addresses behind
//! it, read off the frame pointers. The samples go to stdout, one per line,
//! leaf first, as addresses relative to the executable's load base (return
//! addresses minus one, so they resolve to the call), 0 for an address
//! outside the executable (libc, vdso). `scripts/profile.sh` builds this
//! with frame pointers, resolves the addresses with `addr2line` and prints
//! self and inclusive shares by function:
//!
//! ```sh
//! scripts/profile.sh ls_bg_ecmp_swift 5
//! ```
//!
//! `--time <cell>... <n>` is the other question asked of the same cells:
//! how long one repetition of each takes *relative to the others*. It runs
//! the named cells in turn, `n` rounds of one repetition each, without the
//! sampler, and prints the minimum and the quartiles per cell, every
//! cell's median over the first one's, and the process's peak resident set
//! (`VmHWM`, where `/proc` has it). The box's speed drifts by a fifth
//! over minutes, so back-to-back runs of two binaries (or of one binary on
//! two cells) compare the drift; alternated single repetitions do not.
//!
//! ```sh
//! sample_profile --time ft_soak ft_soak_d1 24
//! ```
//!
//! Only the main thread's stack is walked; all four cells run on it alone.
//! This file is its own crate root, which is why it may hold the `unsafe`
//! that `sigaction` and `setitimer` need and no workspace crate does.

use vertigo::simcore::SimDuration;
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DistKind, IncastSpec, RunSpec, ScenarioSpec, SystemKind, TopoKind, WorkloadSpec,
};

/// The cells of `perfbench/src/cells.rs`, restated: that package is a
/// workspace of its own and nothing here may depend on it.
const CELLS: [&str; 4] = [
    "ls_burst_vertigo",
    "ls_bg_ecmp_swift",
    "ft_soak",
    "ft_soak_d1",
];

fn cell(name: &str) -> Option<RunSpec> {
    let leaf_spine = |system, cc, load, dist, incast_load, horizon_us| {
        let wl = WorkloadSpec {
            background: Some(BackgroundSpec { load, dist }),
            incast: Some(IncastSpec {
                qps: IncastSpec::qps_for_load(incast_load, 16, 40_000, 64 * 10_000_000_000),
                scale: 16,
                flow_bytes: 40_000,
            }),
        };
        let mut s = RunSpec::new(system, cc, wl);
        s.horizon = SimDuration::from_micros(horizon_us);
        s
    };
    let soak = |domains| {
        let wl = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.10,
                dist: DistKind::CacheFollower,
            }),
            incast: None,
        };
        let mut s = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, wl);
        s.topo = TopoKind::FatTree { k: 8 };
        s.scenario = ScenarioSpec::parse(
            "onoff:load=0.3,on=1ms,off=3ms,dist=datamining,tenant=bursty,hosts=0-63 \
             + bg:load=0.15,tenant=svc,hosts=64-127 \
             + incast:scale=16,size=40k,load=0.1,sync=10us",
        )
        .expect("soak scenario parses");
        s.horizon = SimDuration::from_micros(6_000);
        s.domains = domains;
        s
    };
    let (vertigo, ecmp) = (SystemKind::Vertigo, SystemKind::Ecmp);
    Some(match name {
        "ls_burst_vertigo" => leaf_spine(
            vertigo,
            CcKind::Dctcp,
            0.50,
            DistKind::CacheFollower,
            0.25,
            6_000,
        ),
        "ls_bg_ecmp_swift" => {
            leaf_spine(ecmp, CcKind::Swift, 0.60, DistKind::WebSearch, 0.05, 20_000)
        }
        "ft_soak" => soak(None),
        "ft_soak_d1" => soak(Some(1)),
        _ => return None,
    })
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::Relaxed};

    const SIGPROF: i32 = 27;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    const ITIMER_PROF: i32 = 2;
    /// Sampling period in microseconds of process CPU time.
    const PERIOD_US: i64 = 1_000;
    /// Frames kept per sample, leaf included.
    const MAX_DEPTH: usize = 48;
    /// Sample buffer in words: each sample is its depth, then its frames.
    const CAPACITY: usize = 1 << 22;
    /// A tick whose stack pointer is further than this below the top of
    /// the main thread's stack is on another stack: leaf only.
    const STACK_SPAN: u64 = 64 << 20;

    /// `struct sigaction` of x86-64 Linux (glibc and musl alike).
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    static BUF: AtomicPtr<u64> = AtomicPtr::new(std::ptr::null_mut());
    static USED: AtomicUsize = AtomicUsize::new(0);
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_tick(_signal: i32, _info: *mut u8, ucontext: *mut u8) {
        let (buf, used) = (BUF.load(Relaxed), USED.load(Relaxed));
        if buf.is_null() || used + 1 + MAX_DEPTH > CAPACITY {
            return;
        }
        // SAFETY: with SA_SIGINFO the kernel passes a `ucontext_t`, whose
        // general registers start at byte 40 (`uc_flags`, `uc_link`, the
        // 24-byte `uc_stack`); RBP, RSP and RIP are registers 10, 15, 16.
        let (mut fp, sp, ip) = unsafe {
            let regs = ucontext.cast::<u64>().add(5);
            (*regs.add(10), *regs.add(15), *regs.add(16))
        };
        let top = STACK_TOP.load(Relaxed) as u64;
        let mut floor = sp.max(top.saturating_sub(STACK_SPAN));
        // SAFETY: `buf` has CAPACITY words and `used + 1 + MAX_DEPTH` fits;
        // SIGPROF is blocked while its handler runs, so nothing else writes.
        let sample = unsafe { std::slice::from_raw_parts_mut(buf.add(used), 1 + MAX_DEPTH) };
        sample[1] = ip;
        let mut depth = 1;
        while depth < MAX_DEPTH && fp % 8 == 0 && fp >= floor && fp + 16 <= top {
            // SAFETY: the 16 bytes at `fp` lie between the interrupted
            // stack pointer and the top of the main thread's stack mapping.
            let (caller_fp, ret) = unsafe { (*(fp as *const u64), *((fp + 8) as *const u64)) };
            depth += 1;
            sample[depth] = ret.wrapping_sub(1);
            // Callers' frames are strictly above, or the chain is not one.
            floor = fp + 16;
            fp = caller_fp;
        }
        sample[0] = depth as u64;
        USED.store(used + 1 + depth, Relaxed);
    }

    fn set_timer(period_us: i64) {
        let tick = || TimeVal {
            sec: 0,
            usec: period_us,
        };
        let timer = ITimerVal {
            interval: tick(),
            value: tick(),
        };
        // SAFETY: `timer` is a valid `struct itimerval`; no old value is asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer failed");
    }

    /// `[start, end)` of every mapping of `/proc/self/maps` whose path
    /// column is `path`.
    fn mappings(path: &str) -> Vec<(u64, u64)> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps reads");
        let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex address");
        let named = maps
            .lines()
            .filter(|l| l.split_whitespace().nth(5) == Some(path));
        let range = |l: &str| {
            let (start, end) = l.split_whitespace().next()?.split_once('-')?;
            Some((hex(start), hex(end)))
        };
        named.filter_map(range).collect()
    }

    /// Runs `work` under the sampler and returns the samples: leaf first,
    /// relative to the executable's load base, 0 outside the executable.
    pub fn sample(work: impl FnOnce()) -> Vec<Vec<u64>> {
        let exe = std::env::current_exe().expect("own path");
        let exe = mappings(exe.to_str().expect("utf-8 path"));
        let (lo, hi) = exe
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &(s, e)| (lo.min(s), hi.max(e)));
        let stack = mappings("[stack]");
        STACK_TOP.store(
            stack.first().expect("a [stack] mapping").1 as usize,
            Relaxed,
        );
        BUF.store(
            Box::leak(vec![0u64; CAPACITY].into_boxed_slice()).as_mut_ptr(),
            Relaxed,
        );

        let action = SigAction {
            handler: on_tick as extern "C" fn(i32, *mut u8, *mut u8) as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `action` is a valid `struct sigaction` whose handler has
        // the three-argument signature SA_SIGINFO promises and touches only
        // the statics above and the stack it was interrupted on.
        let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction failed");
        set_timer(PERIOD_US);
        work();
        set_timer(0);

        let used = USED.load(Relaxed);
        // SAFETY: the timer is disarmed, so the handler no longer runs, and
        // it wrote `used` words of the CAPACITY leaked above.
        let words = unsafe { std::slice::from_raw_parts(BUF.load(Relaxed), used) };
        let mut samples = Vec::new();
        let mut rest = words;
        while let Some((&depth, tail)) = rest.split_first() {
            let (frames, tail) = tail.split_at(depth as usize);
            let relative = |&a: &u64| if (lo..hi).contains(&a) { a - lo } else { 0 };
            samples.push(frames.iter().map(relative).collect());
            rest = tail;
        }
        samples
    }
}

/// `--time`: `rounds` rounds of one repetition of each cell in turn, then
/// per cell the minimum and quartiles of its repetitions in milliseconds.
fn time_cells(names: &[String], specs: &[RunSpec], rounds: usize) {
    let mut ms = vec![Vec::with_capacity(rounds); specs.len()];
    for _ in 0..rounds {
        for (spec, ms) in specs.iter().zip(&mut ms) {
            let start = std::time::Instant::now();
            std::hint::black_box(spec.run());
            ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    println!("# {rounds} alternated repetitions per cell, ms");
    println!(
        "{:<18}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "cell", "min", "q1", "median", "q3", "/ first"
    );
    let mut first = None;
    for (name, ms) in names.iter().zip(&mut ms) {
        ms.sort_by(f64::total_cmp);
        let q = |k: usize| ms[(ms.len() - 1) * k / 4];
        let first = *first.get_or_insert(q(2));
        let (min, q1, median, q3) = (q(0), q(1), q(2), q(3));
        println!(
            "{name:<18}{min:>9.1}{q1:>9.1}{median:>9.1}{q3:>9.1}{:>9.3}",
            median / first
        );
    }
    if let Some(mb) = peak_rss_mb() {
        println!("# peak RSS {mb:.2} MB (VmHWM, all cells and rounds)");
    }
}

/// The process's peak resident set in MB. Read from the process itself:
/// a parent's `ru_maxrss` of its child also counts the image the child was
/// forked from, which `exec` does not reset.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--time") {
        let (rounds, names) = args[1..].split_last().unzip();
        let rounds = rounds.and_then(|n: &String| n.parse::<usize>().ok());
        let names: &[String] = names.unwrap_or_default();
        let specs: Option<Vec<RunSpec>> = names.iter().map(|n| cell(n)).collect();
        match (rounds, specs) {
            (Some(rounds), Some(specs)) if rounds > 0 && !specs.is_empty() => {
                return time_cells(names, &specs, rounds);
            }
            _ => {
                eprintln!(
                    "usage: sample_profile --time <{}>... <rounds>",
                    CELLS.join("|")
                );
                std::process::exit(2);
            }
        }
    }
    let spec = args.first().and_then(|name| cell(name));
    let reps = args.get(1).map_or(Ok(1), |n| n.parse::<u32>());
    let (Some(spec), Ok(reps)) = (spec, reps) else {
        eprintln!("usage: sample_profile <{}> [repetitions]", CELLS.join("|"));
        std::process::exit(2);
    };
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let samples = sampler::sample(|| {
            for _ in 0..reps {
                std::hint::black_box(spec.run());
            }
        });
        println!("# {} x{reps}: {} samples", args[0], samples.len());
        for frames in samples {
            let hex: Vec<String> = frames.iter().map(|a| format!("{a:x}")).collect();
            println!("{}", hex.join(" "));
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (spec, reps);
        println!("unsupported: the sampler reads x86-64 Linux signal contexts");
    }
}
