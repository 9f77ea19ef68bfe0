//! The Vertigo reproduction harness: one subcommand per table/figure of
//! the paper. Run `experiments all` to regenerate everything, or a single
//! id (e.g. `experiments fig5 --quick`); run it with no arguments for the
//! list of ids and flags. CSVs land in `results/`.

mod common;
mod ext;
mod fig1;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod figdeflect;
mod figworkload;
mod nonbursty;
mod sec2;
mod soak;
mod sweep;
mod table2;
mod table3;
mod tune;

use common::Opts;
use vertigo_workload::RunError;

/// A subcommand: id, one-line description, entry point, and whether
/// `all` runs it.
type Figure = (
    &'static str,
    &'static str,
    fn(&Opts) -> Result<(), RunError>,
    bool,
);

/// Every subcommand, in the order `all` runs them. The usage text, the
/// dispatch and `all` are all read off this table.
const FIGURES: &[Figure] = &[
    (
        "fig1",
        "§2: random deflection vs. load (6 panels)",
        fig1::run,
        true,
    ),
    (
        "sec2",
        "§2: deflection pathologies (hops, reordering, mice)",
        sec2::run,
        true,
    ),
    (
        "fig5",
        "systems x background load (DCTCP), mean+p99 QCT/FCT",
        fig5::run,
        true,
    ),
    (
        "fig6",
        "DIBS/Vertigo x TCP/DCTCP/Swift + QCT CDF",
        fig6::run,
        true,
    ),
    (
        "fig7",
        "fat-tree CDFs (includes Table-2-style summaries)",
        fig7::run,
        true,
    ),
    ("table2", "completion ratios at 75% load", table2::run, true),
    ("fig8", "incast scale sweep", fig8::run, true),
    ("fig9", "incast flow-size sweep", fig9::run, true),
    (
        "fig10",
        "burstiness sweep at fixed 80% load",
        fig10::run,
        true,
    ),
    ("fig11a", "component ablations", fig11::run_a, true),
    ("fig11b", "retransmission boosting", fig11::run_b, true),
    (
        "fig12",
        "1FW/2FW x 1DEF/2DEF on both topologies",
        fig12::run,
        true,
    ),
    ("table3", "SRPT vs LAS marking", table3::run, true),
    ("fig13", "ordering-timeout sweep", fig13::run, true),
    (
        "nonbursty",
        "background-only trace workloads",
        nonbursty::run,
        true,
    ),
    (
        "figdeflect",
        "deflection-policy zoo x congestion control",
        figdeflect::run,
        true,
    ),
    (
        "figworkload",
        "systems x composable --workload scenarios",
        figworkload::run,
        true,
    ),
    (
        "ext",
        "extension: NDP-style trimming policy",
        ext::run,
        true,
    ),
    (
        "tune",
        "parameter search over Vertigo's knobs (grid or successive halving)",
        tune::run,
        false,
    ),
    (
        "soak",
        "sustained multi-tenant scenario on the fat-tree, audited in debug builds",
        soak::run,
        false,
    ),
];

/// The subcommands `cmd` names: `all`, one id, or a lettered pair by its
/// stem (`fig11` = `fig11a` then `fig11b`). Empty for an unknown id.
fn select(cmd: &str) -> Vec<&'static Figure> {
    FIGURES
        .iter()
        .filter(|(id, _, _, in_all)| match cmd {
            "all" => *in_all,
            _ => *id == cmd || id.strip_suffix(['a', 'b']) == Some(cmd),
        })
        .collect()
}

fn usage_text() -> String {
    let mut text = format!("usage: experiments <id> {}\n", common::FLAGS);
    for (id, blurb, _, _) in FIGURES {
        text += &format!("  {id:<12}{blurb}\n");
    }
    let skipped: Vec<&str> = FIGURES.iter().filter(|f| !f.3).map(|f| f.0).collect();
    text += &format!(
        "  {:<12}everything above (except {})\n",
        "all",
        skipped.join(" and ")
    );
    text += &format!("tune extras: {}\n", common::TUNE_FLAGS);
    text += "--workload grammar: kind:key=val,...[@from-until] [+ ...] with kinds \
             incast|bg|perm|onoff (see EXPERIMENTS.md)";
    text
}

/// Prints `why` (if any) and the usage text, and exits 2.
fn usage(why: Option<&str>) -> ! {
    if let Some(why) = why {
        eprintln!("error: {why}");
    }
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage(None);
    };
    let figures = select(cmd);
    if figures.is_empty() {
        usage(Some(&format!("unknown id: {cmd}")));
    }
    let opts = Opts::parse(cmd, rest).unwrap_or_else(|e| usage(Some(&e)));
    println!(
        "[scale={} seed={} leaf-spine {} hosts / fat-tree k={}]\n",
        opts.scale.name,
        opts.seed,
        opts.scale.ls_hosts(),
        opts.scale.ft_k
    );
    // Wall clocks go to stderr: stdout carries only the (deterministic)
    // tables, so diffing runs at different `--jobs` is byte-exact.
    let start = std::time::Instant::now();
    for (id, _, run, _) in &figures {
        let t0 = std::time::Instant::now();
        if let Err(e) = run(&opts) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        if figures.len() > 1 {
            // Per-subcommand wall clock, so slow figures are easy to spot.
            eprintln!("[{id} done in {:.1?}]", t0.elapsed());
        }
    }
    eprintln!("[done in {:.1?}]", start.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_id_once() {
        let usage = usage_text();
        for (id, blurb, _, _) in FIGURES {
            let line = format!("  {id:<12}{blurb}\n");
            assert_eq!(usage.matches(&line).count(), 1, "{id}");
        }
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "duplicate id in FIGURES");
    }

    #[test]
    fn all_is_every_figure_but_tune_and_soak() {
        let all: Vec<&str> = select("all").iter().map(|f| f.0).collect();
        let expected: Vec<&str> = FIGURES
            .iter()
            .map(|f| f.0)
            .filter(|id| !["tune", "soak"].contains(id))
            .collect();
        assert_eq!(all, expected);
        assert_eq!(all.len(), FIGURES.len() - 2);
    }

    #[test]
    fn select_resolves_ids_pairs_and_nothing_else() {
        for (id, ..) in FIGURES {
            let hit: Vec<&str> = select(id).iter().map(|f| f.0).collect();
            assert_eq!(hit, [*id]);
        }
        let pair: Vec<&str> = select("fig11").iter().map(|f| f.0).collect();
        assert_eq!(pair, ["fig11a", "fig11b"]);
        for bogus in ["", "fig", "fig2", "fig11c", "ALL", "--quick"] {
            assert!(select(bogus).is_empty(), "{bogus:?}");
        }
    }
}
