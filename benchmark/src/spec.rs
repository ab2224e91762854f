//! The metrics this benchmark emits, by name. `BENCHMARK.json` at the
//! repository root declares the same sets; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

/// A metric a user of the system would see, with the share of the
/// baseline's median by which it may worsen before that is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound, relative.
    pub bound: f64,
}

/// A metric of one layer (module); reported, never gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Metric name: `<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("sps", "1/s", Higher, 0.25),
    e2e("cpu_us_per_sample", "us", Lower, 0.25),
    e2e("stored_bytes_per_sample", "B", Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// A count that repeats exactly for a given input seed: between two sets
/// of the same seed its bound is 0.
pub const EXACT_PER_SEED: &str = "stored_bytes_per_sample";

/// Per-layer metrics, reported by every traced run. A layer that does no
/// work on a workload reports 0 there.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("store.get_ns_per_shard", "ns", Lower),
    layer("store.get_mib_s", "MiB/s", Higher),
    layer("store.put_ns_per_shard", "ns", Lower),
    layer("codecs.inflate_ns_per_byte", "ns/B", Lower),
    layer("codecs.deflate_ns_per_byte", "ns/B", Lower),
    layer("codecs.space_saving", "share", Higher),
    layer("codecs.crc32_ns_per_byte", "ns/B", Lower),
    layer("record.read_ns_per_record", "ns", Lower),
    layer("record.read_mib_s", "MiB/s", Higher),
    layer("record.write_ns_per_record", "ns", Lower),
    layer("sample.decode_ns", "ns", Lower),
    layer("sample.encode_ns", "ns", Lower),
    layer("steps.decode-image_ns", "ns", Lower),
    layer("steps.resize_ns", "ns", Lower),
    layer("steps.pixel-center_ns", "ns", Lower),
    layer("steps.random-crop_ns", "ns", Lower),
    layer("dataplane.ring_ns_per_bundle", "ns", Lower),
    layer("dataplane.pool_hit_ratio", "share", Higher),
    layer("dataplane.bundles", "count", Lower),
    layer("real.handoff_ns_per_sample", "ns", Lower),
    layer("real.epoch_fixed_us", "us", Lower),
    layer("real.worker_busy_share", "share", Higher),
    layer("real.worker_idle_share", "share", Lower),
    layer("real.queue_mean_depth", "count", Higher),
    layer("real.steps_ns_per_sample", "ns", Lower),
    layer("serve.frame_encode_ns_per_batch", "ns", Lower),
    layer("serve.frame_decode_ns_per_batch", "ns", Lower),
    layer("serve.loopback_ns_per_batch", "ns", Lower),
    layer("serve.loopback_mib_s", "MiB/s", Higher),
    layer("serve.client_decode_ns_per_batch", "ns", Lower),
    layer("serve.wire_bytes_per_sample", "B", Lower),
    layer("serve.batches", "count", Lower),
    layer("serve.credit_stalls", "count", Lower),
    layer("serve.gap_wait_share", "share", Lower),
    layer("serve.stream_read_share", "share", Lower),
    layer("serve.consume_share", "share", Higher),
    layer("tenant.relay_ns_per_sample", "ns", Lower),
    layer("tenant.share_err", "share", Lower),
    layer("tenant.requeues", "count", Lower),
    layer("consumer.batch_gap_p50_us", "us", Lower),
    layer("consumer.batch_gap_p99_us", "us", Lower),
    layer("consumer.first_batch_ms", "ms", Lower),
    layer("ladder.serial_ns_per_sample", "ns", Lower),
    layer("ladder.e2e_ns_per_sample", "ns", Lower),
    layer("ladder.unattributed_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Lower),
    layer("host.calib_ns", "ns", Lower),
    layer("bench.inputgen_s", "s", Lower),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}
