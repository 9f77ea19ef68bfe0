//! Deflection-aware network telemetry (paper §5, future work).
//!
//! The paper observes that deflection breaks classic drop-based
//! monitoring: with Vertigo, packet drops only indicate *large-scale,
//! long-lasting* congestion, so a telemetry system must instead watch
//! link utilization and **deflections per interval** to see microbursts.
//! This module implements that design: the simulation samples every
//! switch at a fixed interval, and [`detect_bursts`] classifies intervals
//! into microburst episodes (deflections spike, drops stay ~zero) versus
//! persistent congestion (drops accumulate) — exactly the distinction §5
//! says operators lose without deflection-aware monitoring.

use vertigo_simcore::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter, Snapshot};

/// Telemetry configuration.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Sampling interval (e.g. 100 µs — far finer than the multi-second
    /// SNMP-style counters the paper's §1 calls too slow for microbursts).
    pub interval: SimDuration,
}

/// One sampling interval's aggregate view of the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// Sample timestamp.
    pub at: SimTime,
    /// Bytes queued across all switch ports at the instant of sampling.
    pub queued_bytes: u64,
    /// Largest single-port queue at the instant of sampling.
    pub max_port_bytes: u64,
    /// Deflections during this interval.
    pub deflections: u64,
    /// Packet drops during this interval.
    pub drops: u64,
    /// ECN marks during this interval.
    pub ecn_marks: u64,
    /// Events pending in the simulator once every event due at the
    /// sample instant has run — scheduler pressure, the event-loop
    /// analogue of `queued_bytes`.
    pub pending_events: u64,
}

/// The collected time series.
#[derive(Debug, Default, Clone)]
pub struct Telemetry {
    /// Samples in time order.
    pub samples: Vec<TelemetrySample>,
    last_deflections: u64,
    last_drops: u64,
    last_ecn: u64,
}

impl Telemetry {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Records one sample from cumulative counters plus the instantaneous
    /// event-queue depth.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        at: SimTime,
        queued_bytes: u64,
        max_port_bytes: u64,
        deflections_cum: u64,
        drops_cum: u64,
        ecn_cum: u64,
        pending_events: u64,
    ) {
        self.samples.push(TelemetrySample {
            at,
            queued_bytes,
            max_port_bytes,
            deflections: deflections_cum - self.last_deflections,
            drops: drops_cum - self.last_drops,
            ecn_marks: ecn_cum - self.last_ecn,
            pending_events,
        });
        self.last_deflections = deflections_cum;
        self.last_drops = drops_cum;
        self.last_ecn = ecn_cum;
    }

    /// Serializes the collected series and the delta cursors.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.put_usize(self.samples.len());
        for s in &self.samples {
            s.at.save(w);
            w.put_u64(s.queued_bytes);
            w.put_u64(s.max_port_bytes);
            w.put_u64(s.deflections);
            w.put_u64(s.drops);
            w.put_u64(s.ecn_marks);
            w.put_u64(s.pending_events);
        }
        w.put_u64(self.last_deflections);
        w.put_u64(self.last_drops);
        w.put_u64(self.last_ecn);
    }

    /// Restores a series written by [`Telemetry::snap_save`]. `counted` is
    /// what the restored recorders hold of the cumulative deflection, drop
    /// and ECN counters: the next sample records the difference to the
    /// cursors, so a cursor above its counter is refused.
    pub fn snap_restore(
        &mut self,
        r: &mut SnapReader<'_>,
        counted: [u64; 3],
    ) -> Result<(), SnapError> {
        let n = r.count(7 * 8, "telemetry samples")?;
        self.samples.clear();
        for _ in 0..n {
            self.samples.push(TelemetrySample {
                at: SimTime::restore(r)?,
                queued_bytes: r.get_u64()?,
                max_port_bytes: r.get_u64()?,
                deflections: r.get_u64()?,
                drops: r.get_u64()?,
                ecn_marks: r.get_u64()?,
                pending_events: r.get_u64()?,
            });
        }
        let cursors = [r.get_u64()?, r.get_u64()?, r.get_u64()?];
        if cursors.iter().zip(counted).any(|(&c, n)| c > n) {
            return Err(SnapError::new(format!(
                "telemetry cursors {cursors:?} (deflections, drops, ECN marks) \
                 exceed the recorded {counted:?}"
            )));
        }
        [self.last_deflections, self.last_drops, self.last_ecn] = cursors;
        Ok(())
    }
}

/// What a telemetry interval looks like to the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalClass {
    /// Nothing notable.
    Quiet,
    /// A microburst absorbed by deflection: deflections spiked while
    /// drops stayed (near) zero. Invisible to drop-based monitoring.
    Microburst,
    /// Persistent congestion: the fabric is shedding load.
    PersistentCongestion,
}

/// A contiguous run of same-classified intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// Classification.
    pub class: IntervalClass,
    /// First sample time of the episode.
    pub start: SimTime,
    /// Last sample time of the episode.
    pub end: SimTime,
    /// Total deflections across the episode.
    pub deflections: u64,
    /// Total drops across the episode.
    pub drops: u64,
}

/// Classifies each interval and merges consecutive equal classes into
/// episodes. `deflection_threshold` is the per-interval deflection count
/// that counts as a spike; intervals with more than `drop_tolerance`
/// drops are persistent congestion regardless of deflections.
pub fn detect_bursts(
    samples: &[TelemetrySample],
    deflection_threshold: u64,
    drop_tolerance: u64,
) -> Vec<Episode> {
    let classify = |s: &TelemetrySample| {
        if s.drops > drop_tolerance {
            IntervalClass::PersistentCongestion
        } else if s.deflections >= deflection_threshold {
            IntervalClass::Microburst
        } else {
            IntervalClass::Quiet
        }
    };
    let mut episodes: Vec<Episode> = Vec::new();
    for s in samples {
        let class = classify(s);
        match episodes.last_mut() {
            Some(e) if e.class == class => {
                e.end = s.at;
                e.deflections += s.deflections;
                e.drops += s.drops;
            }
            _ => episodes.push(Episode {
                class,
                start: s.at,
                end: s.at,
                deflections: s.deflections,
                drops: s.drops,
            }),
        }
    }
    episodes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sample(at_us: u64, deflections: u64, drops: u64) -> TelemetrySample {
        TelemetrySample {
            at: t(at_us),
            queued_bytes: 0,
            max_port_bytes: 0,
            deflections,
            drops,
            ecn_marks: 0,
            pending_events: 0,
        }
    }

    #[test]
    fn record_computes_interval_deltas() {
        let mut tel = Telemetry::new();
        tel.record(t(100), 10, 5, 50, 2, 1, 7);
        tel.record(t(200), 20, 8, 80, 2, 4, 9);
        assert_eq!(tel.samples[0].deflections, 50);
        assert_eq!(tel.samples[1].deflections, 30);
        assert_eq!(tel.samples[1].drops, 0);
        assert_eq!(tel.samples[1].ecn_marks, 3);
        // Pending-events depth is instantaneous, not a delta.
        assert_eq!(tel.samples[0].pending_events, 7);
        assert_eq!(tel.samples[1].pending_events, 9);
    }

    #[test]
    fn microburst_vs_persistent_classification() {
        let series = vec![
            sample(100, 0, 0),    // quiet
            sample(200, 500, 0),  // microburst (deflections, no drops)
            sample(300, 400, 1),  // still microburst (within tolerance)
            sample(400, 0, 0),    // quiet
            sample(500, 900, 80), // persistent (drops)
            sample(600, 800, 90),
        ];
        let eps = detect_bursts(&series, 100, 5);
        let classes: Vec<IntervalClass> = eps.iter().map(|e| e.class).collect();
        assert_eq!(
            classes,
            vec![
                IntervalClass::Quiet,
                IntervalClass::Microburst,
                IntervalClass::Quiet,
                IntervalClass::PersistentCongestion,
            ]
        );
        // The microburst episode spans samples 2-3 and sums deflections.
        let mb = &eps[1];
        assert_eq!(mb.start, t(200));
        assert_eq!(mb.end, t(300));
        assert_eq!(mb.deflections, 900);
    }

    #[test]
    fn empty_series_yields_no_episodes() {
        assert!(detect_bursts(&[], 1, 0).is_empty());
    }

    #[test]
    fn all_quiet_is_one_episode() {
        let series: Vec<TelemetrySample> = (0..10).map(|i| sample(i * 100, 0, 0)).collect();
        let eps = detect_bursts(&series, 1, 0);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].class, IntervalClass::Quiet);
    }
}
