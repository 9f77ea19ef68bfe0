//! Table 3: SRPT vs. flow aging (LAS) marking, against the ECMP and DIBS
//! baselines, across a load sweep.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_core::MarkingDiscipline;
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Table 3: SRPT vs LAS marking (mean QCT) ==\n");
    let s = &opts.scale;
    let columns = [
        (SystemKind::Ecmp, MarkingDiscipline::Srpt),
        (SystemKind::Dibs, MarkingDiscipline::Srpt),
        (SystemKind::Vertigo, MarkingDiscipline::Srpt),
        (SystemKind::Vertigo, MarkingDiscipline::Las),
    ];
    let loads: Vec<u32> = (55..=95).step_by(10).collect();
    let mut cells = Vec::new();
    for &total in &loads {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.25,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(s.incast_for_load((total - 25) as f64 / 100.0)),
        };
        for (sys, disc) in columns {
            let mut spec = opts.spec(sys, CcKind::Dctcp, workload);
            spec.vertigo.discipline = disc;
            cells.push(Cell::new(
                format!("table3 load{total} {} {disc:?}", sys.name()),
                spec,
                (),
            ));
        }
    }
    // One cell per table *column*: a row is a load's four mean QCTs.
    let qcts = sweep::run(opts, cells, |_, out| fmt_secs(out.report.qct_mean))?;
    let mut t = Table::new(&[
        "load%",
        "DCTCP+ECMP",
        "DCTCP+DIBS",
        "Vertigo-SRPT",
        "Vertigo-LAS",
    ]);
    for (total, row) in loads.iter().zip(qcts.chunks(columns.len())) {
        let mut cells = vec![total.to_string()];
        cells.extend_from_slice(row);
        t.row(cells);
    }
    t.emit(opts, "table3");
    Ok(())
}
