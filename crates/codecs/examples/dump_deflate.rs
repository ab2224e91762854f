//! Writes what our compressor makes of `scripts/gen_inflate_vectors.py`'s
//! payloads into the directory named by the first argument, one file per
//! payload, level and framing, named `<payload>-l<level>.<framing>`. The
//! script's `--check` runs this and has Python's zlib inflate every file.

#[path = "../tests/payloads/mod.rs"]
mod payloads;

use presto_codecs::container::{gzip_compress, zlib_compress};
use presto_codecs::deflate::deflate;
use presto_codecs::Level;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let dir = PathBuf::from(std::env::args().nth(1).expect("usage: dump_deflate <dir>"));
    let payloads = [
        ("text", payloads::text(64 * 1024)),
        ("noise-f32", payloads::noise_f32(52_000)),
        ("fibonacci", payloads::fibonacci(18)),
    ];
    type Framing = fn(&[u8], Level) -> Vec<u8>;
    let framings: [(&str, Framing); 3] = [
        ("raw", deflate),
        ("gzip", gzip_compress),
        ("zlib", zlib_compress),
    ];
    for (payload, data) in &payloads {
        for level in [1, 6, 9] {
            for (framing, compress) in framings {
                let name = format!("{payload}-l{level}.{framing}");
                std::fs::write(dir.join(name), compress(data, Level(level)))?;
            }
        }
    }
    Ok(())
}
