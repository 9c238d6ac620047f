"""Hostile binary inputs, and the one sized reader that meets them.

Every read whose length a file declares (IDX headers and payloads,
checkpoint headers and parameters) goes through `model.read_sized`, which
compares the length with what is left of the file before it reads or
allocates anything.  The hostile cases run in one child process under an
address-space limit and a timeout, so that a reader that allocates what a
header claims fails the test, not the machine.
"""

import ast
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 2 << 30  # bytes; a hostile header claims far more
TIMEOUT_S = 60


def _images(n, magic=0x00000803):
    return struct.pack(">IIII", magic, n, 2, 2) + bytes(4 * n)


def _labels(n):
    return struct.pack(">II", 0x00000801, n) + bytes(i % 3 for i in range(n))


# case -> (the files that replace good ones, the file the error names or None, exit code)
HOSTILE_IDX = {
    "wrong_magic": ({"train-images": _images(30, magic=0x00000801)}, "train-images", 1),
    "header_shorter_than_its_dims": ({"train-images": struct.pack(">III", 0x803, 30, 2)},
                                     "train-images", 1),
    "max_dims_in_16_bytes": ({"train-images": struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3)},
                             "train-images", 1),
    "images_far_above_the_file": (
        {"train-images": struct.pack(">IIII", 0x803, 0x0FFFFFFF, 0xFFFF, 0xFFFF) + bytes(120)},
        "train-images", 1),
    "labels_far_above_the_file": ({"train-labels": struct.pack(">II", 0x801, 0xFFFFFFFF)
                                   + bytes(30)}, "train-labels", 1),
    "payload_one_byte_short": ({"test-images": _images(12)[:-1]}, "test-images", 1),
    "zero_images": ({"train-images": _images(0), "train-labels": _labels(0)}, "train-images", 1),
    "trailing_bytes_ignored": ({"train-images": _images(30) + bytes(7)}, None, 0),
}

# case -> checkpoint bytes, each a ValueError naming the file
_HEAD = struct.Struct("<4sIQ")
HOSTILE_CHECKPOINTS = {
    "five_bytes": b"FNTD\x01",
    "length_2_64_minus_1": _HEAD.pack(b"FNTD", 1, 2**64 - 1),
    "length_2_40": _HEAD.pack(b"FNTD", 1, 2**40) + bytes(64),
    "payload_4_bytes_short": _HEAD.pack(b"FNTD", 1, 3) + bytes(20),
    "bad_magic": _HEAD.pack(b"NOPE", 1, 1) + bytes(8),
    "bad_version": _HEAD.pack(b"FNTD", 2, 1) + bytes(8),
}

_CHILD = """\
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from fednsim import cli, model
configs, checkpoints = json.loads(sys.argv[1])
out = {{}}
for name, cfg in configs.items():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        out[name] = [cli.main(["partition", cfg]), err.getvalue()]
for name, path in checkpoints.items():
    try:
        model.load_params(path)
        out[name] = "loaded"
    except Exception as exc:
        out[name] = [type(exc).__name__, isinstance(exc, ValueError), str(exc)]
print(json.dumps(out))
"""


def _idx_case(tmp_path, name):
    """Writes case `name`'s four IDX files and config; returns the config path."""
    case_dir = tmp_path / name
    case_dir.mkdir()
    files = {"train-images": _images(30), "train-labels": _labels(30),
             "test-images": _images(12), "test-labels": _labels(12), **HOSTILE_IDX[name][0]}
    for file, data in files.items():
        (case_dir / file).write_bytes(data)
    config = case_dir / "idx.cfg"
    config.write_text("data = idx\npartition = iid\nclients = 2\nhidden_dims = 4\n" + "".join(
        f"idx_{file.replace('-', '_')} = {case_dir / file}\n" for file in files))
    return config


def test_hostile_binary_inputs_end_in_named_errors(tmp_path):
    configs = {name: str(_idx_case(tmp_path, name)) for name in HOSTILE_IDX}
    checkpoints = {}
    for name, data in HOSTILE_CHECKPOINTS.items():
        checkpoints[name] = str(tmp_path / f"{name}.fntd")
        Path(checkpoints[name]).write_bytes(data)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", _CHILD.format(limit=ADDRESS_SPACE),
            json.dumps([configs, checkpoints])]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S, env=env,
                           check=False)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)

    for name, (_, named, code) in HOSTILE_IDX.items():
        exit_code, err = got[name]
        assert exit_code == code, (name, err)
        if named is None:
            assert err == "", name
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
            assert str(tmp_path / name / named) in err, (name, err)
            assert "out of memory" not in err, (name, err)
    for name, path in checkpoints.items():
        kind, is_value_error, message = got[name]
        assert is_value_error and path in message, (name, kind, message)
    # a truncation names the part and both sizes
    assert "truncated IDX payload: needs 48 bytes, 47 are left" in got["payload_one_byte_short"][1]
    assert (f"truncated checkpoint parameters: needs {8 * (2**64 - 1)} bytes, 0 are left"
            in got["length_2_64_minus_1"][2])


def _unsized_reads(source: str) -> list[int]:
    """Lines of `.read(...)` calls with an argument outside `read_sized`."""
    tree = ast.parse(source)
    sized = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name == "read_sized"
             for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "read" and (node.args or node.keywords)
            and id(node) not in sized]


def test_every_sized_read_goes_through_read_sized():
    sources = {path.name: path.read_text() for path in sorted((SRC / "fednsim").glob("*.py"))}
    assert {name: lines for name, source in sources.items()
            if (lines := _unsized_reads(source))} == {}
    assert "def read_sized(" in sources["model.py"]  # the guard is not vacuous
    assert _unsized_reads("def load(f, n):\n    return f.read(n)\n") == [2]
    assert _unsized_reads("def load(f):\n    return f.read()\n") == []
