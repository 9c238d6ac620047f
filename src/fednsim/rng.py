"""Deterministic, order-independent random streams.

Every source of randomness in the simulator is a Philox (counter-based)
generator keyed by a master seed plus an integer namespace path.  Streams
with different paths are statistically independent and do not depend on
the order in which they are created, so a client's draws do not depend on
which other clients train in the same round or in what order.

`standard_normal` draws a large array of one stream's normals on every CPU
and returns the same bits as one `standard_normal` call on that stream.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

# Namespace constants.  Never reuse a value: stream identity is (seed, path).
NS_INIT = 0  # model weight initialization
NS_SYNTH_MEANS = 1  # synthetic dataset class means
NS_SYNTH_SAMPLES = 2  # synthetic dataset draws (sub-keyed by split)
NS_PARTITION = 3  # shard dealing / per-class dirichlet draws
NS_ROUND_SAMPLE = 4  # per-round client sampling
NS_CLIENT_SHUFFLE = 5  # per-(round, client) batch shuffling
NS_VERIFY = 6  # verification-suite instance generation

_PART_DRAWS = 1 << 18  # the draws a part of a fill takes at least, unless the parts are forced
_EDGE = 8  # draws a part takes one at a time at each of its inner ends


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for namespace `path` under `seed`.

    Same (seed, path) always yields the same stream; distinct paths are
    independent regardless of creation order.
    """
    seq = np.random.SeedSequence(entropy=int(seed) & ((1 << 64) - 1), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def standard_normal(shape, seed: int, *path: int, parts: int | None = None) -> np.ndarray:
    """`stream(seed, *path).standard_normal(shape)`, bit for bit, drawn in
    `parts` parts at once, one a thread: by default one per CPU, each of at
    least 2**18 draws.  Fewer would save less than the threads cost: once
    a process has started a thread, glibc takes its slower multi-threaded
    paths in it and in its forks for good, which took about 2% longer on
    the rounds of a desk-sized run.

    Philox is counter-based, so part i starts at its own word of the stream
    (`_part`).  A normal takes one 64-bit word, or a few when the ziggurat
    rejects, so a part that starts inside a draw parses a few false draws
    before it meets a true start; neighbouring parts are joined at the
    first draw start both of them saw (`_fill`).
    """
    out = np.empty(shape)
    n = out.size
    parts = min(cpus(), n // _PART_DRAWS) if parts is None else parts
    # n >= 2 * _EDGE * parts**2: past the regions' offsets, the last region holds its head
    parts = min(parts, math.isqrt(n // (2 * _EDGE)))
    if parts <= 1:
        return stream(seed, *path).standard_normal(out=out)
    _fill(out.reshape(-1), seed, path, [i * n // parts // 4 * 4 for i in range(parts)])
    return out


def _words(gen: np.random.Generator) -> int:
    """The 64-bit words the Philox stream `gen` has used: four a counter
    step, the last step's block read up to `buffer_pos`."""
    state = gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]


def _part(seed: int, path: tuple, start: int, stop: int | None, buf: np.ndarray, edge: int):
    """Draw stream(seed, *path) from word `start`, a multiple of 4, into
    `buf`: (generator, draws, head, tail).

    A part after the first takes its first `edge` draws one at a time and
    returns their start words as `head`.  A part with a `stop` word then
    draws in bulk, each call `rem` words short of `stop` taking a twentieth
    fewer normals than that, since a rejection takes an extra word about
    once in 45 draws, and then one at a time until `edge` draws have
    started at or after `stop`, whose start words it returns as `tail`.
    Each draw takes a word at least, so that is `stop - start + edge`
    draws at most.  The last part, without a `stop`, fills `buf`.
    """
    gen = stream(seed, *path)
    gen.bit_generator.advance(start // 4)
    head, tail = [], []
    for count in range(edge if start else 0):
        at = _words(gen)
        if stop is not None and at >= stop:
            break  # every draw from `stop` on is the tail's
        head.append(at)
        buf[count] = gen.standard_normal()
    count = len(head)
    if stop is None:
        gen.standard_normal(out=buf[count:])
        return gen, len(buf), head, tail
    while (rem := stop - _words(gen)) >= 16:
        step = rem - max(rem // 20, 8)
        gen.standard_normal(out=buf[count : count + step])
        count += step
    while len(tail) < edge:
        at = _words(gen)
        buf[count] = gen.standard_normal()
        count += 1
        if at >= stop:
            tail.append(at)
    return gen, count, head, tail


def _fill(flat: np.ndarray, seed: int, path: tuple, splits: list[int], edge: int = _EDGE) -> None:
    """Fill the 1-D `flat` with stream(seed, *path)'s first normals.

    Part i starts at word splits[i] (splits[0] = 0) and draws into its own
    region of `flat`, which starts at splits[i] + i * edge and holds the
    most it draws; part 0 on the calling thread, the others on one thread
    each.  Each join keeps the left part's draws before the first of its
    tail's start words that the right part's head holds, and the right
    part's from there on, moved left to follow them: the left part's end
    before the right part's region.  Where there is none, the left part's
    draws are all kept and its generator draws the rest, as the last
    part's does past its region, so the result is exact in every case.
    """
    n = flat.size
    starts = [at + i * edge for i, at in enumerate(splits)]  # the regions
    regions = [flat[a:b] for a, b in zip(starts, [*starts[1:], n])]
    stops = [*splits[1:], None]
    done = [None] * len(splits)
    errors = []

    def work(i):
        try:
            done[i] = _part(seed, path, splits[i], stops[i], regions[i], edge)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = []
    try:
        for i in range(1, len(splits)):
            thread = threading.Thread(target=work, args=(i,), name=f"normal-fill-{i}")
            thread.start()
            threads.append(thread)  # only a started thread can be joined
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]

    gen, count, _, tail = done[0]
    at = first = off = 0  # the left part's region starts at flat[at], and its draws
    # from the region's `first` on go to flat[off]
    for right_at, (right_gen, right_count, head, right_tail) in zip(starts[1:], done[1:]):
        shared = next((word for word in tail if word in head), None)
        if shared is None:
            break
        keep = count - len(tail) + tail.index(shared)
        _move(flat, off, at + first, keep - first)
        off += keep - first
        gen, count, tail, at, first = right_gen, right_count, right_tail, right_at, head.index(shared)
    _move(flat, off, at + first, count - first)
    off += count - first
    if off < n:
        gen.standard_normal(out=flat[off:])


def _move(flat: np.ndarray, to: int, frm: int, count: int) -> None:
    """flat[to:to + count] = flat[frm:frm + count], where to <= frm, in
    pieces that do not overlap, so that numpy makes no copy of the source."""
    if to == frm:
        return
    for at in range(0, count, frm - to):
        piece = min(frm - to, count - at)
        flat[to + at : to + at + piece] = flat[frm + at : frm + at + piece]
