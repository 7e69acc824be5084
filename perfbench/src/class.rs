//! The in-process class-stack workload: the paper's rake-and-contract
//! index (`Strategy::Rake`) over a random hierarchy, driven by one
//! closed-loop thread. It is the only workload whose reads go through
//! the 3-sided metablock trees and the external PST.

use std::io;
use std::time::{Duration, Instant};

use ccix_class::{IndexBuilder, Strategy};
use ccix_extmem::{Geometry, IoCounter};
use ccix_testkit::workloads::{hierarchy, HierarchyShape};
use ccix_testkit::{oracle, DetRng};

use crate::gen::{self, ObjectAnchors, ObjectWrites, ATTR_RANGE};
use crate::serve::B;
use crate::stats::{Quantiles, Rate, Report, Samples, SliceSteal, Sliced};
use crate::{sys, RunArgs};

const CLASSES: usize = 1023;
const OBJECTS: usize = 100_000;
/// Even inserts and deletes keep the index at about `OBJECTS` live objects
/// however many batches a run completes. The batches take most of the
/// loop's time, so a growing mix would leave a faster run with a larger
/// index, and its space, memory and query cost would follow the speed of
/// the machine rather than the code.
const INSERT_PCT: u64 = 50;
const BATCH: usize = 64;
/// At the root (whose full extent holds every object) a window this wide
/// returns about 300 objects.
const WINDOW: i64 = ATTR_RANGE / OBJECTS as i64 * 300;
const SETUP_REPS: usize = 3;

/// The hierarchy is part of the workload's definition, like `c`: its
/// shape sets how many copies the rake index keeps of each object, so a
/// hierarchy drawn per seed would move space and query cost between runs.
const HIERARCHY_SEED: u64 = 0x5eed_0101;
const SEED_OBJECTS: u64 = 0x5eed_0102;
const SEED_WRITE: u64 = 0x5eed_0103;
const SEED_QUERY: u64 = 0x5eed_0104;
const SEED_CHECK: u64 = 0x5eed_0105;

pub fn run(args: &RunArgs, rep: &mut Report) -> io::Result<()> {
    let h = hierarchy(HierarchyShape::Random, CLASSES, HIERARCHY_SEED);
    let bulk = gen::bulk_objects(&h, OBJECTS, args.seed ^ SEED_OBJECTS);
    let anchors = ObjectAnchors::new(&bulk);
    let builder = IndexBuilder::new(h.clone(), Geometry::new(B)).strategy(Strategy::Rake);
    rep.meta("n", OBJECTS);
    rep.meta("B", B);
    rep.meta("classes", CLASSES);
    rep.meta("strategy", "rake");

    let mut setup = Samples::default();
    let counter = IoCounter::new();
    let t0 = Instant::now();
    let mut idx = builder.bulk(counter.clone(), &bulk);
    setup.push(t0.elapsed().as_secs_f64());

    // One closed loop: 90 % full-extent range queries, 10 % mixed batches.
    let mut writes = ObjectWrites::new(&h, &bulk, args.seed ^ SEED_WRITE, INSERT_PCT);
    let mut rng = DetRng::new(args.seed ^ SEED_QUERY);
    let (mut query_ios, mut write_ios, mut ops_done, mut wrong) = (0u64, 0u64, 0u64, 0u64);
    let ticks = sys::cpu_ticks();
    let start = Instant::now();
    let record_from = start + Duration::from_secs_f64((args.seconds / 10.0).min(1.0));
    let end = record_from + Duration::from_secs_f64(args.seconds);
    let (mut query, mut apply) = (
        Sliced::new(record_from, args.seconds),
        Sliced::new(record_from, args.seconds),
    );
    let (mut reads, mut acked) = (
        Rate::new(record_from, args.seconds),
        Rate::new(record_from, args.seconds),
    );
    let mut steal = SliceSteal::new(record_from, args.seconds);
    loop {
        let t0 = Instant::now();
        steal.poll(t0);
        if t0 >= end {
            break;
        }
        let recorded = t0 >= record_from;
        if rng.gen_range(0..10u32) == 0 {
            let ops = writes.batch(BATCH);
            let io0 = counter.total();
            let t0 = Instant::now();
            idx.apply_batch(&ops);
            let lat = t0.elapsed();
            if recorded {
                apply.push(t0, lat.as_secs_f64() * 1e3);
                acked.note(t0, t0 + lat, ops.len() as f64);
                ops_done += ops.len() as u64;
                write_ios += counter.total() - io0;
            }
        } else {
            let class = rng.gen_range(0..CLASSES);
            let a1 = rng.gen_range(0..ATTR_RANGE - WINDOW);
            let a2 = a1 + WINDOW - 1;
            let io0 = counter.total();
            let t0 = Instant::now();
            let mut ids = idx.query(class, a1, a2);
            let lat = t0.elapsed();
            if recorded {
                query.push(t0, lat.as_secs_f64() * 1e6);
                reads.note(t0, t0 + lat, 1.0);
                query_ios += counter.total() - io0;
            }
            wrong += u64::from(!anchors.check(&h, class, a1, a2, &mut ids, writes.issued()));
        }
    }

    rep.meta(
        "cpu_steal_pct",
        format!("{:.1}", sys::steal_pct_since(ticks)),
    );
    let rss = sys::rss_peak_mib();
    let quiet = steal.quiet();
    for s in [&mut query, &mut apply] {
        s.keep(&quiet);
    }
    for r in [&mut reads, &mut acked] {
        r.keep(&quiet);
    }
    let per: Vec<String> = steal
        .per_slice()
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect();
    rep.lines.push(format!(
        "cpu steal by slice (%): {}; gated figures read the quieter slice of each pair",
        per.join(" ")
    ));

    // After the writes: a fixed query sample against the oracle's scan.
    let live = writes.live(&anchors);
    let mut crng = DetRng::new(args.seed ^ SEED_CHECK);
    let checks = 64;
    for _ in 0..checks {
        let class = crng.gen_range(0..CLASSES);
        let a1 = crng.gen_range(0..ATTR_RANGE - WINDOW);
        let a2 = a1 + WINDOW - 1;
        let mut got = idx.query(class, a1, a2);
        let mut want = oracle::class_range_ids(&h, &live, class, a1, a2);
        got.sort_unstable();
        want.sort_unstable();
        wrong += u64::from(got != want);
    }

    let (nq, nw) = (query.len() as u64, apply.len() as u64);
    rep.attempted = nq + nw + checks;
    rep.wrong = wrong;
    rep.failed = wrong;
    if !args.trace {
        let pages = idx.space_pages();
        drop(idx);
        // The other set-ups behind the set-up time's median run after the
        // measurement, so their allocations stay out of the peak RSS.
        for _ in 1..SETUP_REPS {
            let t0 = Instant::now();
            let extra = builder.bulk(IoCounter::new(), &bulk);
            setup.push(t0.elapsed().as_secs_f64());
            drop(extra);
        }
        rep.add(
            "setup_s",
            setup.median().expect("set-up ran"),
            "s",
            setup.len(),
        )
        .gate = Some("setup_s");
        if let Some(m) = rep.quantile("class_query_p50_us", &mut query, 0.5, "us", true) {
            m.gate = Some("read_p50_us");
        }
        rep.quantile("class_query_p90_us", &mut query, 0.9, "us", true);
        rep.quantile("class_query_p99_us", &mut query.all(), 0.99, "us", true);
        rep.add("class_query_ops_per_s", reads.per_s(), "1/s", nq as usize);
        rep.quantile("class_apply_p50_ms", &mut apply, 0.5, "ms", true);
        rep.add("class_write_ops_per_s", acked.per_s(), "1/s", nw as usize)
            .gate = Some("write_ops_per_s");
        rep.add(
            "fail_frac",
            rep.failed as f64 / rep.attempted.max(1) as f64,
            "ratio",
            rep.attempted as usize,
        );
        rep.add("rss_peak_mib", rss, "MiB", 1).gate = Some("rss_peak_mib");
        let ratio = pages as f64 / (live.len() as f64 / B as f64);
        rep.add("space_ratio", ratio, "ratio", 1).gate = Some("space_ratio");
    } else {
        rep.add(
            "class.query_ios",
            query_ios as f64 / nq.max(1) as f64,
            "count",
            nq as usize,
        );
        rep.add(
            "class.write_ios_per_op",
            write_ios as f64 / ops_done.max(1) as f64,
            "count",
            ops_done as usize,
        );
        rep.add("class.pages", idx.space_pages() as f64, "count", 1);
    }
    Ok(())
}
