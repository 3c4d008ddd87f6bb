//! Platform parameter sets.
//!
//! All micro-level costs of the simulated machines live here. The presets
//! are sized to resemble the paper's 1996 hardware (a Sun 4-class
//! workstation front-end, a CM-2 behind a dedicated channel, a Paragon
//! behind a 10 Mbit/s Ethernet) without claiming cycle accuracy: the
//! reproduction targets the *shape* of the paper's results, and every
//! experiment calibrates the analytical model against the same simulated
//! platform it predicts.

use serde::{Deserialize, Serialize};
use simcore::num::f64_from_u64;
use simcore::time::SimDuration;

/// Which CPU scheduler the front-end runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Ideal processor sharing (the model's own idealization).
    ProcessorSharing,
    /// Quantum round-robin with context-switch overhead (default; the
    /// "actual" machine the model is validated against).
    RoundRobin,
}

/// Front-end workstation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrontendParams {
    /// Scheduler flavour.
    pub scheduler: SchedulerKind,
    /// Round-robin quantum.
    pub quantum: SimDuration,
    /// Context-switch cost charged when the dispatched job changes.
    pub ctx_switch: SimDuration,
}

impl Default for FrontendParams {
    fn default() -> Self {
        FrontendParams {
            scheduler: SchedulerKind::RoundRobin,
            // SunOS-era defaults: 20 ms quantum, 100 µs switch.
            quantum: SimDuration::from_millis(20),
            ctx_switch: SimDuration::from_micros(100),
        }
    }
}

impl FrontendParams {
    /// The idealized processor-sharing variant (ablation).
    pub fn processor_sharing() -> Self {
        FrontendParams { scheduler: SchedulerKind::ProcessorSharing, ..Default::default() }
    }
}

/// CM2 back-end parameters. Transfers between the front-end and the CM2
/// are element-by-element operations *driven by the front-end CPU*, which
/// is why front-end contention slows them down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cm2Params {
    /// Front-end CPU time to start one message toward the CM2 (`α_sun`).
    pub xfer_alpha_to: SimDuration,
    /// Front-end CPU time per word moved toward the CM2 (`1/β_sun`).
    pub xfer_per_word_to: SimDuration,
    /// Front-end CPU time to start one message from the CM2 (`α_cm2`).
    pub xfer_alpha_from: SimDuration,
    /// Front-end CPU time per word moved from the CM2 (`1/β_cm2`).
    pub xfer_per_word_from: SimDuration,
    /// Front-end CPU time to issue one parallel instruction to the
    /// sequencer (part of the serial stream).
    pub instr_dispatch: SimDuration,
}

impl Default for Cm2Params {
    fn default() -> Self {
        Cm2Params {
            xfer_alpha_to: SimDuration::from_micros(500),
            // β_sun ≈ 5 × 10⁵ words/s toward the CM2.
            xfer_per_word_to: SimDuration::from_nanos(2_000),
            xfer_alpha_from: SimDuration::from_micros(800),
            // β_cm2 ≈ 2.5 × 10⁵ words/s back to the front-end.
            xfer_per_word_from: SimDuration::from_nanos(4_000),
            instr_dispatch: SimDuration::from_micros(50),
        }
    }
}

/// How messages reach the Paragon's compute nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommPath {
    /// 1-HOP: TCP/IP directly from the front-end to each compute node.
    OneHop,
    /// 2-HOPS: TCP/IP to a service node, which forwards over NX.
    TwoHops,
}

/// Ethernet + Paragon communication parameters.
///
/// The wire implements two protocol regimes around `eager_limit_words`
/// (an eager send below, a handshaked rendezvous above, with better
/// streaming bandwidth). This is the micro-level mechanism from which the
/// paper's *piecewise-linear* dedicated cost emerges under calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParagonParams {
    /// Message path used by the platform.
    pub path: CommPath,
    /// Wire latency per message.
    pub wire_latency: SimDuration,
    /// Protocol switch point, in words (real platform: 1024).
    pub eager_limit_words: u64,
    /// Streaming rate below the eager limit, words/second.
    pub bw_small: f64,
    /// Streaming rate above the eager limit, words/second.
    pub bw_large: f64,
    /// Extra per-message handshake above the eager limit.
    pub rendezvous_overhead: SimDuration,
    /// Front-end CPU time per message for data-format conversion.
    pub conv_alpha: SimDuration,
    /// Front-end CPU time per word to convert and copy an *outgoing*
    /// message (XDR-style marshalling was expensive on 1996 workstations —
    /// comparable to the per-word wire cost).
    pub conv_per_word_out: SimDuration,
    /// Front-end CPU time per word on the *receive* side while the
    /// message fits the network buffer cluster: interrupt handling,
    /// checksumming, kernel→user copy, and XDR decode all land on the
    /// receiving host.
    pub conv_per_word_in: SimDuration,
    /// Words that fit the receive buffer cluster (mbuf-chain style);
    /// beyond it every word pays [`Self::conv_per_word_in_overflow`].
    pub conv_cluster_words: u64,
    /// Per-word receive cost beyond the buffer cluster — extra copies and
    /// buffer-chain walking make large messages disproportionately CPU
    /// hungry. This is the mechanism behind the paper's observation that
    /// the computation delay grows with contender message size and
    /// saturates around 1000 words (`delay_commⁱʲ`).
    pub conv_per_word_in_overflow: SimDuration,
    /// Outbound send window: how many messages may be between conversion
    /// and delivery at once. 1 models a blocking (stop-and-wait) send;
    /// large values approach a fully pipelined sender.
    pub send_window: u64,
    /// Processor-sharing weight of receive-side protocol processing.
    /// Interrupt handling and kernel copies preempt ordinary timesharing
    /// jobs, so inbound conversion runs at an elevated weight; 1.0 would
    /// make it an ordinary user job. This is what lets a contender moving
    /// large messages slow a computation by far more than fair sharing
    /// would — the superlinear part of `delay_commⁱʲ`.
    pub recv_kernel_weight: f64,
    /// Compute-node receive/send software overhead per message.
    pub node_overhead: SimDuration,
    /// Gap between successive message emissions by a compute node.
    pub node_emit_gap: SimDuration,
    /// Service-node NX forwarding cost per message (2-HOPS only).
    pub nx_per_message: SimDuration,
    /// Service-node NX forwarding cost per word (2-HOPS only).
    pub nx_per_word: SimDuration,
}

impl Default for ParagonParams {
    fn default() -> Self {
        ParagonParams {
            path: CommPath::OneHop,
            wire_latency: SimDuration::from_micros(1_000),
            eager_limit_words: 1024,
            // 10 Mbit/s Ethernet ≈ 312 k 4-byte words/s peak; protocol
            // overheads push the small-message regime well below that.
            bw_small: 150_000.0,
            bw_large: 280_000.0,
            rendezvous_overhead: SimDuration::from_micros(4_000),
            conv_alpha: SimDuration::from_micros(300),
            conv_per_word_out: SimDuration::from_nanos(6_000),
            conv_per_word_in: SimDuration::from_nanos(4_000),
            conv_cluster_words: 600,
            conv_per_word_in_overflow: SimDuration::from_nanos(16_000),
            send_window: 1,
            recv_kernel_weight: 3.0,
            node_overhead: SimDuration::from_micros(300),
            node_emit_gap: SimDuration::from_micros(500),
            nx_per_message: SimDuration::from_micros(400),
            nx_per_word: SimDuration::from_nanos(200),
        }
    }
}

impl ParagonParams {
    /// Wire service time for one message of `words` words.
    pub fn wire_service(&self, words: u64) -> SimDuration {
        if words <= self.eager_limit_words {
            self.wire_latency + SimDuration::from_secs_f64(f64_from_u64(words) / self.bw_small)
        } else {
            self.wire_latency
                + self.rendezvous_overhead
                + SimDuration::from_secs_f64(f64_from_u64(words) / self.bw_large)
        }
    }

    /// NX forwarding service time for one message (2-HOPS).
    pub fn nx_service(&self, words: u64) -> SimDuration {
        self.nx_per_message + self.nx_per_word * words
    }

    /// Front-end conversion CPU demand for one outgoing message.
    pub fn conv_demand_out(&self, words: u64) -> SimDuration {
        self.conv_alpha + self.conv_per_word_out * words
    }

    /// Front-end conversion CPU demand for one incoming message.
    pub fn conv_demand_in(&self, words: u64) -> SimDuration {
        let in_cluster = words.min(self.conv_cluster_words);
        let overflow = words.saturating_sub(self.conv_cluster_words);
        self.conv_alpha
            + self.conv_per_word_in * in_cluster
            + self.conv_per_word_in_overflow * overflow
    }
}

/// Local disk parameters (for the I/O-operations extension of §4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskParams {
    /// Positioning time per operation (seek + rotational latency).
    pub seek: SimDuration,
    /// Streaming transfer rate, words per second.
    pub rate: f64,
}

impl Default for DiskParams {
    fn default() -> Self {
        // A mid-90s SCSI disk: ~12 ms positioning, ~1 M words/s stream.
        DiskParams { seek: SimDuration::from_millis(12), rate: 1.0e6 }
    }
}

impl DiskParams {
    /// Service time for one I/O of `words` words.
    pub fn service(&self, words: u64) -> SimDuration {
        self.seek + SimDuration::from_secs_f64(f64_from_u64(words) / self.rate)
    }
}

/// Complete platform description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PlatformConfig {
    /// Front-end workstation.
    pub frontend: FrontendParams,
    /// CM2 back-end parameters (used by CM2 phases).
    pub cm2: Cm2Params,
    /// Paragon/link parameters (used by Paragon phases).
    pub paragon: ParagonParams,
    /// Local disk (used by `Phase::DiskIo`).
    pub disk: DiskParams,
}

impl PlatformConfig {
    /// The Sun/CM2 preset.
    pub fn sun_cm2() -> Self {
        PlatformConfig::default()
    }

    /// The Sun/Paragon preset with the 1-HOP path.
    pub fn sun_paragon() -> Self {
        PlatformConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_service_is_piecewise() {
        let p = ParagonParams::default();
        let at_limit = p.wire_service(p.eager_limit_words);
        let above = p.wire_service(p.eager_limit_words + 1);
        // The rendezvous handshake makes a discontinuous jump at the limit.
        assert!(above > at_limit);
        // But large messages stream faster per word.
        let per_word_small = (p.wire_service(1000) - p.wire_service(500)).as_secs_f64() / 500.0;
        let per_word_large =
            (p.wire_service(10_000) - p.wire_service(5_000)).as_secs_f64() / 5_000.0;
        assert!(per_word_large < per_word_small);
    }

    #[test]
    fn conv_demand_scales_with_words() {
        let p = ParagonParams::default();
        assert_eq!(p.conv_demand_out(0), p.conv_alpha);
        assert_eq!(p.conv_demand_out(1000), p.conv_alpha + p.conv_per_word_out * 1000);
        // Receive-side processing is the costlier direction at large
        // sizes, where the buffer-cluster overflow kicks in.
        assert!(p.conv_demand_in(1000) > p.conv_demand_out(1000));
        let marginal_small = (p.conv_demand_in(500) - p.conv_demand_in(400)).as_secs_f64();
        let marginal_large = (p.conv_demand_in(1100) - p.conv_demand_in(1000)).as_secs_f64();
        assert!(marginal_large > 2.0 * marginal_small);
    }

    #[test]
    fn disk_service_has_seek_floor() {
        let d = DiskParams::default();
        assert_eq!(d.service(0), d.seek);
        assert!(d.service(1_000_000) > d.service(1_000));
    }

    #[test]
    fn nx_service_linear() {
        let p = ParagonParams::default();
        assert_eq!(p.nx_service(0), p.nx_per_message);
        assert!(p.nx_service(1000) > p.nx_service(10));
    }
}
