"""The parallel normal fill: `rng.standard_normal` gives the bits of one
`standard_normal` call on the stream, whatever the parts, and leaves no
thread behind."""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fednsim import rng
from fednsim.cli import main
from fednsim.data import synth_dataset

PATH = (rng.NS_SYNTH_SAMPLES, 0)


def one_call(n, seed):
    return rng.stream(seed, *PATH).standard_normal(n)


def starts(n, seed):
    """The start word of each of the stream's first n normals, and the end word."""
    gen = rng.stream(seed, *PATH)
    words = []
    for _ in range(n):
        words.append(rng._words(gen))
        gen.standard_normal()
    return words, rng._words(gen)


def split_inside_a_draw(n, seed):
    """A multiple of 4 inside one of the stream's first n normals, from the
    middle on; None if there is none."""
    words, end = starts(n, seed)
    for at, after in zip(words[n // 2:], [*words[n // 2 + 1:], end]):
        inner = [w for w in range(at + 1, after) if w % 4 == 0]
        if inner:
            return inner[0]
    return None


def fill(n, seed, splits, edge=rng._EDGE):
    """`_fill`'s normals, and how many parts it joined before the first it
    could not join or the end."""
    flat = np.empty(n)
    with mock.patch.object(rng, "_move", wraps=rng._move) as move:
        rng._fill(flat, seed, PATH, splits, edge)
    return flat.tobytes(), move.call_count


def test_words_counts_the_raw_words_used():
    gen = rng.stream(3, *PATH)
    assert rng._words(gen) == 0
    gen.bit_generator.random_raw(5)
    assert rng._words(gen) == 5
    gen.bit_generator.advance(3)  # three 4-word blocks on, from the block word 5 is in
    assert rng._words(gen) == 20
    gen = rng.stream(3, *PATH)
    gen.standard_normal(1000)
    raw = rng.stream(3, *PATH).bit_generator
    raw.random_raw(rng._words(gen))
    assert gen.bit_generator.random_raw(4).tolist() == raw.random_raw(4).tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       n=st.one_of(st.integers(128, 600),  # shares of a few 4-word blocks
                   st.integers(-3, 3).map(lambda d: 2**17 + d),  # parts of 2**15 draws and more
                   st.integers(-3, 3).map(lambda d: 4 * 2**10 + d)),  # block edges
       parts=st.integers(1, 4))
@example(seed=0, n=2**17, parts=2)
@example(seed=7, n=2**17 + 1, parts=4)
def test_same_bits_as_one_call(seed, n, parts):
    got = rng.standard_normal((n,), seed, *PATH, parts=parts)
    assert got.tobytes() == one_call(n, seed).tobytes()


def test_shape_and_parts_at_the_threshold(monkeypatch):
    monkeypatch.setattr(rng, "cpus", lambda: 3)
    seen = []
    part = rng._part
    monkeypatch.setattr(rng, "_part", lambda *args: seen.append(args[2]) or part(*args))
    for n, parts in [(2**19 - 1, 1), (2**19, 2), (3 * 2**18, 3), (5 * 2**18, 3)]:
        seen.clear()
        got = rng.standard_normal((n // 4, 4) if n % 4 == 0 else (n,), 5, *PATH)
        assert got.tobytes() == one_call(n, 5).tobytes()
        assert len(seen) == (parts if parts > 1 else 0), n  # one part is one plain call
        assert sorted(seen)[:1] in ([], [0]) and all(w % 4 == 0 for w in seen)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_a_split_inside_a_draw_resyncs_or_falls_back(seed):
    n = 2000
    split = split_inside_a_draw(n, seed)
    if split is None:
        return
    ref = one_call(n, seed).tobytes()
    # the head's first start is the split, which no draw starts at; a later one is shared
    assert fill(n, seed, [0, split]) == (ref, 2)
    # a head of one start shares none with the left part: its generator draws the rest
    assert fill(n, seed, [0, split], edge=1) == (ref, 1)


def test_a_split_inside_a_draw_is_found():
    assert split_inside_a_draw(2000, 0) is not None  # the test above is not vacuous


def test_parts_that_fill_their_regions_to_the_end():
    # seed 1's first 72 normals take one word each, so each part of 16 words
    # draws 16 + edge normals: all its region holds
    assert starts(72, 1)[0] == list(range(72))
    assert fill(200, 1, [0, 16, 32, 48]) == (one_call(200, 1).tobytes(), 4)


def test_the_last_part_is_continued_past_its_region():
    n = 3000
    ref = one_call(n, 11).tobytes()
    for split in (1000, 2980):  # regions of 1992 and 12 draws, short of ~2020 and ~80
        assert fill(n, 11, [0, split]) == (ref, 2)
    assert fill(n, 11, [0, 800, 1600, 2400]) == (ref, 4)


def test_a_split_is_the_same_bits_at_1_2_and_3_cpus(monkeypatch):
    got = []
    for count in (1, 2, 3):
        monkeypatch.setattr(rng, "cpus", lambda: count)
        got.append(synth_dataset(3, 2**18, 1, 1.0, seed=4, split=1).features.tobytes())
    assert got[0] == got[1] == got[2]


def test_a_fill_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(rng, "cpus", lambda: 3)
    before = threading.active_count()
    ds = synth_dataset(3, 2**18, 1, 1.0, seed=2)  # three parts
    assert threading.active_count() == before
    assert ds.features.shape == (3 * 2**18, 1)


def test_a_thread_that_cannot_start_leaves_none_running(monkeypatch):
    start = threading.Thread.start

    def failing(thread):
        if thread.name == "normal-fill-2":
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        fill(3000, 1, [0, 1000, 2000])
    assert threading.active_count() == before


def _fail_the_last_part(monkeypatch):
    part = rng._part

    def failing(seed, path, start, stop, *rest):
        if stop is None:
            raise MemoryError("cannot draw a part")
        return part(seed, path, start, stop, *rest)

    monkeypatch.setattr(rng, "_part", failing)


def test_a_failing_part_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(rng, "cpus", lambda: 3)
    _fail_the_last_part(monkeypatch)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="cannot draw a part"):
        synth_dataset(3, 2**18, 1, 1.0, seed=2)
    assert threading.active_count() == before


def test_a_failing_part_is_out_of_memory_to_the_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(rng, "cpus", lambda: 2)
    _fail_the_last_part(monkeypatch)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"synth_classes = 2\nsynth_per_class = {2**18}\nsynth_dim = 1\nrounds = 1\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory (cannot draw a part)"), err
