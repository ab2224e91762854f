//! Property tests of the simulation substrate: conservation laws,
//! fairness bounds and determinism that must hold for *any* workload.

use presto_storage::cache::PageCache;
use presto_storage::device::DeviceProfile;
use presto_storage::machine::{MachineConfig, ReadReq, SimMachine, Stage};
use presto_storage::resource::PsResource;
use presto_storage::time::{EventLoop, Nanos};
use proptest::prelude::*;

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (1u64..50_000_000).prop_map(|ns| Stage::Cpu { work: Nanos(ns) }),
        (0u64..100, 1u64..5_000_000)
            .prop_map(|(file, bytes)| Stage::Read(ReadReq::open_file(file, bytes))),
        (1u64..2_000_000).prop_map(|bytes| Stage::Write { bytes }),
        (1u64..2_000_000).prop_map(|bytes| Stage::MemCopy { bytes }),
        (0usize..2, 1u64..1_000_000).prop_map(|(lock, ns)| Stage::Lock {
            lock,
            hold: Nanos(ns)
        }),
    ]
}

fn run_machine(tasks: &[Vec<Stage>], cache_bytes: u64) -> presto_storage::Dstat {
    let mut machine = SimMachine::new(MachineConfig {
        cores: 4,
        device: DeviceProfile::hdd_ceph(),
        page_cache_bytes: cache_bytes,
        locks: 2,
    });
    for stages in tasks {
        machine.add_task(Box::new(stages.clone().into_iter()));
    }
    machine.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The machine always terminates and conserves bytes: every
    /// requested read byte is accounted either to storage or cache.
    #[test]
    fn machine_conserves_read_bytes(
        tasks in proptest::collection::vec(
            proptest::collection::vec(arb_stage(), 0..12), 1..6)
    ) {
        let requested: u64 = tasks
            .iter()
            .flatten()
            .map(|s| match s {
                Stage::Read(req) => req.bytes,
                _ => 0,
            })
            .sum();
        let stats = run_machine(&tasks, 1 << 30);
        prop_assert_eq!(stats.storage_read_bytes + stats.cache_read_bytes, requested);
    }

    /// Virtual time is monotone and at least as long as the single
    /// longest serialized lock chain.
    #[test]
    fn span_covers_lock_holds(
        holds in proptest::collection::vec(1u64..10_000_000, 1..8)
    ) {
        let tasks: Vec<Vec<Stage>> = holds
            .iter()
            .map(|&ns| vec![Stage::Lock { lock: 0, hold: Nanos(ns) }])
            .collect();
        let total: u64 = holds.iter().sum();
        let stats = run_machine(&tasks, 0);
        prop_assert!(stats.span >= Nanos(total), "span {} < {}", stats.span.0, total);
    }

    /// The machine is deterministic: identical inputs, identical stats.
    #[test]
    fn machine_is_deterministic(
        tasks in proptest::collection::vec(
            proptest::collection::vec(arb_stage(), 0..10), 1..5)
    ) {
        let a = run_machine(&tasks, 1 << 26);
        let b = run_machine(&tasks, 1 << 26);
        prop_assert_eq!(a.span, b.span);
        prop_assert_eq!(a.storage_read_bytes, b.storage_read_bytes);
        prop_assert_eq!(a.cache_read_bytes, b.cache_read_bytes);
        prop_assert_eq!(a.cpu_work, b.cpu_work);
    }

    /// Processor sharing never exceeds capacity: completing W units of
    /// work on a capacity-C resource takes at least W/C.
    #[test]
    fn ps_resource_respects_capacity(
        works in proptest::collection::vec(1.0f64..1e6, 1..10),
        capacity in 1.0f64..1e5,
    ) {
        let mut resource = PsResource::new(capacity);
        for &work in &works {
            resource.add(Nanos::ZERO, work, f64::INFINITY);
        }
        let mut now = Nanos::ZERO;
        let mut completed = 0usize;
        while let Some(t) = resource.next_completion() {
            now = t;
            completed += resource.advance(t).len();
            if completed == works.len() {
                break;
            }
        }
        prop_assert_eq!(completed, works.len());
        let total: f64 = works.iter().sum();
        let min_secs = total / capacity;
        prop_assert!(
            now.as_secs_f64() >= min_secs * 0.999,
            "finished in {} < {min_secs}",
            now.as_secs_f64()
        );
    }

    /// The event loop's tie rule: for any schedule, events pop in a
    /// stable sort of the schedule by time.
    #[test]
    fn event_loop_pops_a_stable_sort_of_its_schedule(
        times in proptest::collection::vec(0u64..16, 0..64)
    ) {
        let mut events = EventLoop::new();
        for (index, &at) in times.iter().enumerate() {
            events.schedule(Nanos(at), index);
        }
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| events.pop())
            .map(|(at, index)| (at.0, index))
            .collect();
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(index, &at)| (at, index)).collect();
        expected.sort_by_key(|&(at, _)| at);
        prop_assert_eq!(popped, expected);
    }

    /// Cache accounting: hit + miss always equals the request size, and
    /// residency never exceeds capacity.
    #[test]
    fn cache_accounting_is_exact(
        ops in proptest::collection::vec(
            (0u64..4, 0u64..1_000_000, 1u64..300_000), 1..64),
        capacity in 1u64..64,
    ) {
        let granule = 64 * 1024;
        let mut cache = PageCache::with_granule(capacity * granule, granule);
        for &(file, offset, len) in &ops {
            let split = cache.access(file, offset, len, true, u64::MAX);
            prop_assert_eq!(split.hit + split.miss, len);
            prop_assert!(cache.resident_bytes() <= capacity * granule);
        }
    }
}
