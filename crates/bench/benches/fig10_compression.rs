//! Figure 10 (a–n): GZIP/ZLIB compression per strategy per pipeline —
//! storage consumption vs throughput (left column) and offline + online
//! processing time (right column).

use presto_bench::{banner, bench_env, fig10_compression_tables};

fn main() {
    banner(
        "Figure 10",
        "Compression: space saving vs throughput vs offline time",
    );
    print!("{}", fig10_compression_tables(bench_env()));
    println!("paper's observations: high space saving does not guarantee higher");
    println!("throughput (CPU-bound strategies never gain); CV-family pixel-centered");
    println!("gains 1.6-2.4x at 73-93% saving; NILM/MP3/FLAC slow down.");
}
