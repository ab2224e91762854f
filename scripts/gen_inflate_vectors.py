#!/usr/bin/env python3
"""Interop vectors for presto-codecs' inflate, made by a real zlib.

Round-trip tests never see what another compressor emits: zlib's block
boundaries, length-limited 15-bit codes, a fixed-Huffman block with long
matches, the largest distance the format allows. This script writes such streams with
the machine's `zlib` module into crates/codecs/tests/vectors/; the inputs
are rebuilt byte for byte by crates/codecs/tests/vectors.rs, which checks
that inflate reproduces them.

    scripts/gen_inflate_vectors.py            # (re)write the fixtures
    scripts/gen_inflate_vectors.py --check    # fail if they have drifted

`--check` always proves that every committed fixture still decompresses,
by zlib, to this script's input. It compares the bytes zlib would write
today only under the zlib version the fixtures were made with: another
version may pick other, equally valid, matches.

`--check` also goes the other way: it has the `dump_deflate` example of
presto-codecs compress three of the inputs at levels 1, 6 and 9 in the
raw, gzip and zlib framings, and proves that zlib inflates each stream to
the input.
"""

import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

MADE_WITH = "1.2.13"
ROOT = Path(__file__).resolve().parent.parent
VECTORS = ROOT / "crates/codecs/tests/vectors"
MASK = (1 << 64) - 1


class Lcg:
    """Knuth's MMIX generator; vectors.rs has the same eight lines."""

    def __init__(self, seed):
        self.state = seed

    def next(self):
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & MASK
        return self.state >> 33


def text(size):
    out = bytearray()
    i = 0
    while len(out) < size:
        out += b"record %06d field value %d " % (i, i % 97)
        i += 1
    return bytes(out[:size])


def noise_f32(count):
    """f32 noise on 64 levels in [-1, 1): about one symbol per value, so
    zlib closes a block (16383 symbols) every 64 KiB or so."""
    rng = Lcg(1)
    return b"".join(struct.pack("<f", (rng.next() % 64 - 32) / 32) for _ in range(count))


def fibonacci(symbols):
    """Byte `k` occurs 1, 2, 3, 5, 8, ... times, shuffled. Coded without
    matches and with the end-of-block symbol as the sequence's first 1,
    an unlimited Huffman tree would be `symbols` deep, so the code is cut
    at 15 bits. All of it must fit one block (16383 symbols)."""
    out = bytearray()
    a, b = 1, 2
    for k in range(symbols):
        out += bytes([k]) * a
        a, b = b, a + b
    rng = Lcg(2)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return bytes(out)


def noise_bytes(size):
    rng = Lcg(3)
    return bytes(rng.next() % 256 for _ in range(size))


def deflate(data, level, wbits, strategy=zlib.Z_DEFAULT_STRATEGY):
    """wbits: -15 raw, 15 zlib, 31 gzip (its header has no name or time)."""
    stream = zlib.compressobj(level, zlib.DEFLATED, wbits, 8, strategy)
    return stream.compress(data) + stream.flush()


class BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.count = 0

    def bits(self, value, count):
        self.acc |= value << self.count
        self.count += count
        while self.count >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.count -= 8

    def code(self, value, count):
        """A Huffman code goes in most significant bit first."""
        self.bits(int(format(value, "0%db" % count)[::-1], 2), count)

    def finish(self):
        if self.count:
            self.bits(0, 8 - self.count)
        return bytes(self.out)


def fixed_literal(w, byte):
    if byte < 144:
        w.code(0x30 + byte, 8)
    else:
        w.code(0x190 + byte - 144, 9)


def fixed_length(w, symbol):
    if symbol < 280:
        w.code(symbol - 256, 7)
    else:
        w.code(0xC0 + symbol - 280, 8)


def window():
    """One fixed-Huffman block no zlib would write (its matches reach back
    32506 bytes at most): "abc", 127 matches of length 258 at distance 3,
    then length 258 at distance 32768, length 3 at distance 1, a literal."""
    w = BitWriter()
    w.bits(1, 1)  # BFINAL
    w.bits(1, 2)  # BTYPE = fixed
    for byte in b"abc":
        fixed_literal(w, byte)
    for _ in range(127):
        fixed_length(w, 285)  # length 258, no extra bits
        w.code(2, 5)  # distance 3
    fixed_length(w, 285)
    w.code(29, 5)  # distance 24577 + 13 extra bits
    w.bits(32768 - 24577, 13)
    fixed_length(w, 257)  # length 3
    w.code(0, 5)  # distance 1
    fixed_literal(w, 0xFF)
    fixed_length(w, 256)  # end of block
    return w.finish()


def vectors():
    """name -> (stream, wbits it inflates under, expected output)."""
    words = text(64 * 1024)
    floats = noise_f32(52_000)
    deep = fibonacci(18)
    made = {
        "text-l1.raw": (deflate(words, 1, -15), -15, words),
        "text-l6.gzip": (deflate(words, 6, 31), 31, words),
        "text-l9.zlib": (deflate(words, 9, 15), 15, words),
        "noise-f32-l6.gzip": (deflate(floats, 6, 31), 31, floats),
        "fibonacci-l9.zlib": (deflate(deep, 9, 15, zlib.Z_HUFFMAN_ONLY), 15, deep),
        "fixed-l6.raw": (deflate(words[:2048], 6, -15, zlib.Z_FIXED), -15, words[:2048]),
        "stored-l0.raw": (deflate(noise_bytes(1000), 0, -15), -15, noise_bytes(1000)),
        "zeros-l6.raw": (deflate(bytes(70_000), 6, -15), -15, bytes(70_000)),
    }
    stream = window()
    made["window.raw"] = (stream, -15, zlib.decompress(stream, -15))
    return made


def ours_inflate_by_zlib():
    """Names of our own streams that zlib does not inflate to their input."""
    words, floats, deep = text(64 * 1024), noise_f32(52_000), fibonacci(18)
    payloads = {"text": words, "noise-f32": floats, "fibonacci": deep}
    wbits = {"raw": -15, "gzip": 31, "zlib": 15}
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            ["cargo", "run", "--quiet", "--release", "--offline", "-p", "presto-codecs",
             "--example", "dump_deflate", "--", out],
            cwd=ROOT,
            check=True,
        )
        streams = {path.name: path.read_bytes() for path in Path(out).iterdir()}
    failed = []
    for payload, expected in payloads.items():
        for level in (1, 6, 9):
            for framing, bits in wbits.items():
                name = "%s-l%d.%s" % (payload, level, framing)
                try:
                    if zlib.decompress(streams.pop(name, b""), bits) != expected:
                        failed.append(name)
                except zlib.error:
                    failed.append(name)
    return failed + sorted(streams)


def main():
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(__doc__)
    same_zlib = zlib.ZLIB_RUNTIME_VERSION == MADE_WITH
    drifted = []
    for name, (stream, wbits, expected) in vectors().items():
        path = VECTORS / name
        if not check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(stream)
            print("%-20s %7d -> %6d bytes" % (name, len(expected), len(stream)))
            continue
        committed = path.read_bytes() if path.exists() else b""
        try:
            decodes = zlib.decompress(committed, wbits) == expected
        except zlib.error:
            decodes = False
        if not decodes or (same_zlib and committed != stream):
            drifted.append(name)
    if check and not same_zlib:
        print("zlib %s, not %s: checked outputs only" % (zlib.ZLIB_RUNTIME_VERSION, MADE_WITH))
    if drifted:
        sys.exit("drifted from scripts/gen_inflate_vectors.py: " + ", ".join(drifted))
    if check:
        failed = ours_inflate_by_zlib()
        if failed:
            sys.exit("zlib does not inflate our streams to their input: " + ", ".join(failed))


if __name__ == "__main__":
    main()
