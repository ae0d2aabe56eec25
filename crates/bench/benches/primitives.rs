//! Criterion microbenchmarks of the device primitives — these measure the
//! *host-side* cost of driving the simulator (useful for keeping the
//! simulator itself fast); the simulated device times are what the
//! experiment binaries report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use primitives::{gather, radix_partition, sort_pairs};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim::{Device, DeviceConfig};

const N: usize = 1 << 18;

fn bench_radix_partition(c: &mut Criterion) {
    let dev = Device::a100();
    let keys = dev.upload(
        (0..N as i32)
            .map(|i| i.wrapping_mul(2654435761u32 as i32))
            .collect::<Vec<_>>(),
        "b.keys",
    );
    let vals = dev.upload((0..N as u32).collect::<Vec<_>>(), "b.vals");
    let mut g = c.benchmark_group("radix_partition");
    g.throughput(Throughput::Elements(N as u64));
    for bits in [8u32, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            b.iter(|| radix_partition(&dev, &keys, &vals, bits));
        });
    }
    g.finish();
}

fn bench_sort_pairs(c: &mut Criterion) {
    let dev = Device::a100();
    let keys = dev.upload(
        (0..N as i32)
            .map(|i| i.wrapping_mul(40503))
            .collect::<Vec<_>>(),
        "b.keys",
    );
    let vals = dev.upload((0..N as u32).collect::<Vec<_>>(), "b.vals");
    let mut g = c.benchmark_group("sort_pairs");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("i32", |b| b.iter(|| sort_pairs(&dev, &keys, &vals)));
    g.finish();
}

fn bench_gather(c: &mut Criterion) {
    let dev = Device::a100();
    let src = dev.upload((0..N as i32).collect::<Vec<_>>(), "b.src");
    let clustered = dev.upload((0..N as u32).collect::<Vec<_>>(), "b.cmap");
    let mut shuffled: Vec<u32> = (0..N as u32).collect();
    shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(1));
    let unclustered = dev.upload(shuffled, "b.umap");
    let mut g = c.benchmark_group("gather");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("clustered", |b| b.iter(|| gather(&dev, &src, &clustered)));
    g.bench_function("unclustered", |b| {
        b.iter(|| gather(&dev, &src, &unclustered))
    });
    g.finish();
}

/// The warp-traffic core on its own (`warp_loads` + `launch`, nothing
/// else), one number per path through `L2Cache::access_warp`: lanes in
/// order (clustered), out of order with few same-set conflicts (unclustered
/// on the full 40 MB L2), and out of order on an L2 cut down to 64 sets —
/// the rollback path's worst case, where nearly every set a warp touches
/// conflicts and is replayed.
fn bench_warp_loads(c: &mut Criterion) {
    const ADDRS: usize = 1 << 22;
    let scattered = |i: usize| (i.wrapping_mul(2654435761)) % ADDRS;
    let mut g = c.benchmark_group("warp_loads");
    g.throughput(Throughput::Elements(ADDRS as u64));
    let full = Device::a100();
    let tiny = Device::new(DeviceConfig {
        l2_bytes: 64 * sim::SECTOR_BYTES,
        ..DeviceConfig::a100()
    });
    for (name, dev, clustered) in [
        ("clustered", &full, true),
        ("unclustered", &full, false),
        ("conflict_heavy", &tiny, false),
    ] {
        let buf = dev.alloc::<i32>(ADDRS, "b.addrs");
        g.bench_function(name, |b| {
            b.iter(|| {
                let addrs =
                    (0..ADDRS).map(|i| buf.addr_of(if clustered { i } else { scattered(i) }));
                dev.kernel("b.warp_loads").warp_loads(4, addrs).launch()
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_radix_partition, bench_sort_pairs, bench_gather, bench_warp_loads
}
criterion_main!(benches);
