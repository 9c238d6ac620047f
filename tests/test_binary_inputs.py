"""Hostile inputs and outputs, and the one opener and reader that meet them.

Every input (config, round CSV, IDX file, checkpoint) is read by
`model.read_file`: a file that can seek up to the size it has, so that a
device such as /dev/zero reads as empty, and a pipe to its end.  Every
length a file declares (IDX headers and payloads, checkpoint headers and
parameters) is compared with the bytes read, by `model.sized_part`, before
any array is made.  The hostile cases, fixed ones and IDX headers drawn by
hypothesis, run in child processes under an address-space limit, each case
under its own alarm (`children.run_child`), so that a reader that allocates
what a header claims, or reads a device without end, fails the test, not
the machine.

Every file the package opens, to read or to write, is opened by
`model.open_file`, which does not wait on a FIFO that has no peer.  The
FIFO and closed-pipe cases run in one child process too, each under its
own alarm, so that an open that waits fails its case instead of stalling the
suite.  AST guards keep every open, every read and, in the tests, every
child process on its one path.
"""

import ast
import json
import math
import os
import struct
from dataclasses import fields
from pathlib import Path

import pytest
from children import SRC, run_child
from hypothesis import given, settings
from hypothesis import strategies as st

from fednsim import cli
from fednsim.config import ExperimentConfig


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
    "images_from_dev_zero": ({"train-images": "/dev/zero"}, "/dev/zero", 1),
}

# case -> (argv, exit code, text its stderr holds, or for an exit 0 its stdout)
HOSTILE_COMMANDS = {
    "config_from_dev_zero": (["partition", "/dev/zero", "--stats"], 0,
                             "strategy=iid clients=10 dataset_size=1000\n"),
    "round_csv_from_dev_zero": (["metrics", "/dev/zero"], 1, "/dev/zero: empty round CSV"),
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
from fednsim import cli, data, model
commands, checkpoints, idx_pairs = json.loads(sys.argv[1])


def load(path):
    try:
        model.load_params(path)
        return "loaded"
    except Exception as exc:
        return [type(exc).__name__, isinstance(exc, ValueError), str(exc)]


def read(pair):
    ds = data.read_idx(*pair)
    return [ds.features.tolist(), ds.labels.tolist(), ds.num_classes]


out = {name: case(lambda: cli.main(argv)) for name, argv in commands.items()}
out |= {name: case(lambda: load(path))[0] for name, path in checkpoints.items()}
out |= {name: case(lambda: read(pair))[0] for name, pair in idx_pairs.items()}
print(json.dumps(out))
"""


def _idx_case(case_dir, hostile):
    """Writes a good case's four IDX files into `case_dir`, with `hostile`
    (file -> its bytes or the path of a file to read instead) in place of good
    ones, and their config; returns the config path."""
    case_dir.mkdir(exist_ok=True)
    files = {"train-images": _images(30), "train-labels": _labels(30),
             "test-images": _images(12), "test-labels": _labels(12), **hostile}
    paths = {}
    for file, data in files.items():  # a str is the path of a file to read instead
        paths[file] = case_dir / file if isinstance(data, bytes) else Path(data)
        if isinstance(data, bytes):
            paths[file].write_bytes(data)
    config = case_dir / "idx.cfg"
    config.write_text("data = idx\npartition = iid\nclients = 2\nhidden_dims = 4\n" + "".join(
        f"idx_{file.replace('-', '_')} = {path}\n" for file, path in paths.items()))
    return config


def test_hostile_binary_inputs_end_in_named_errors(tmp_path):
    commands = {name: ["partition", str(_idx_case(tmp_path / name, files))]
                for name, (files, _, _) in HOSTILE_IDX.items()}
    commands |= {name: argv for name, (argv, _, _) in HOSTILE_COMMANDS.items()}
    checkpoints = {}
    for name, data in HOSTILE_CHECKPOINTS.items():
        checkpoints[name] = str(tmp_path / f"{name}.fntd")
        Path(checkpoints[name]).write_bytes(data)
    # one IDX pair from files and the same bytes through pipes the child reads to their end
    pair, pipes = (_images(30), _labels(30)), []
    for i, data in enumerate(pair):
        (tmp_path / f"pair-{i}").write_bytes(data)
        read_end, write_end = os.pipe()  # the bytes fit the pipe's buffer
        os.write(write_end, data)
        os.close(write_end)
        pipes.append(read_end)
    idx_pairs = {"idx_files": [str(tmp_path / f"pair-{i}") for i in range(2)],
                 "idx_pipes": [f"/dev/fd/{fd}" for fd in pipes]}
    try:
        child = run_child(_CHILD, json.dumps([commands, checkpoints, idx_pairs]), pass_fds=pipes)
    finally:
        for fd in pipes:
            os.close(fd)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)

    for name, (_, named, code) in HOSTILE_IDX.items():
        exit_code, out, err = got[name]
        assert (exit_code, out) == (code, ""), (name, err)
        if named is None:
            assert err == "", name
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
            assert str(tmp_path / name / named) in err, (name, err)
            assert "out of memory" not in err, (name, err)
    for name, (_, code, text) in HOSTILE_COMMANDS.items():
        exit_code, out, err = got[name]
        assert exit_code == code, (name, err)
        if code == 0:
            assert out.startswith(text) and err == "", (name, out, err)
        else:
            assert err.startswith("error: ") and err.count("\n") == 1 and text in err, (name, err)
    for name, path in checkpoints.items():
        kind, is_value_error, message = got[name]
        assert is_value_error and path in message, (name, kind, message)
    # a truncation names the part and both sizes
    assert "truncated IDX payload: needs 48 bytes, 47 are left" in got["payload_one_byte_short"][2]
    assert "/dev/zero: truncated IDX header: needs 16 bytes, 0 are left" in (
        got["images_from_dev_zero"][2])
    assert (f"truncated checkpoint parameters: needs {8 * (2**64 - 1)} bytes, 0 are left"
            in got["length_2_64_minus_1"][2])
    assert "bad checkpoint magic" in got["bad_magic"][2]
    assert "truncated checkpoint parameters" in got["payload_4_bytes_short"][2]
    # a pipe reads as the file does
    assert got["idx_pipes"] == got["idx_files"] and len(got["idx_files"][1]) == 30


# The header of each of a good case's four IDX files: its magic, then its dimensions
IDX_HEADERS = {"train-images": (0x803, 30, 2, 2), "train-labels": (0x801, 30),
               "test-images": (0x803, 12, 2, 2), "test-labels": (0x801, 12)}


@st.composite
def hostile_idx_files(draw):
    """(one of a good case's IDX files, hostile bytes in its place): a wrong
    magic, the other kind's or 0; or a header cut short; or each dimension 0,
    near its good value or any u32, so that the payload it declares is above,
    at, below or far above the bytes that follow."""
    name = draw(st.sampled_from(sorted(IDX_HEADERS)))
    magic, *dims = IDX_HEADERS[name]
    fault = draw(st.sampled_from(["sizes", "magic", "short header"]))
    if fault == "magic":
        magic = draw(st.sampled_from([magic ^ 0x801 ^ 0x803, 0]))
    if fault == "sizes":
        dims = [draw(st.sampled_from([0, d - 1, d, d + 1]) | st.integers(0, 2**32 - 1))
                for d in dims]
    near = min(math.prod(dims), 4096)  # the declared payload, at most 4 KB
    length = draw(st.sampled_from([max(near - 1, 0), near, near + 7]) | st.integers(0, near + 8))
    whole = struct.pack(f">{1 + len(dims)}I", magic, *dims) + bytes(i % 3 for i in range(length))
    if fault == "short header":
        return name, whole[:draw(st.integers(0, 4 * len(dims) + 3))]
    return name, whole


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(hostile=hostile_idx_files())
def hostile_idx_property(case, case_dir, hostile):
    """`partition` on a good IDX case with one file drawn hostile, run by the
    child's `case`, exits 0, or 1 with one `error:` line naming that file."""
    name, data = hostile
    config = _idx_case(case_dir, {name: data})
    code, _, err = case(lambda: cli.main(["partition", str(config)]))
    if code == 0:
        assert err == "", err
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
        assert str(case_dir / name) in err, err


_IDX_PROPERTY_CHILD = """\
import pathlib
from test_binary_inputs import hostile_idx_property
hostile_idx_property(case, pathlib.Path(sys.argv[1]))
"""


def test_hostile_idx_headers_end_in_a_result_or_an_error_naming_the_file(tmp_path):
    # every drawn case runs in one child, each under its own alarm; hypothesis keeps
    # its files in the child's working directory
    child = run_child(_IDX_PROPERTY_CHILD, str(tmp_path / "case"), cwd=tmp_path)
    assert child.returncode == 0, child.stdout + child.stderr


# Every config key takes each of these values in turn: through `partition` on the defaults,
# and through `run` on RUN_BASE, a run of two rounds of one epoch of both clients on a few
# samples, with the key under test in place of its line
HOSTILE_VALUES = ("0", "-1", str(2**63), str(10**21), "-0.0", "5e-324", "1e308", "nan", "inf",
                  "-inf", "", "x", "1,2")
RUN_BASE = {"synth_classes": "3", "synth_per_class": "10", "synth_test_per_class": "5",
            "synth_dim": "4", "clients": "2", "hidden_dims": "4", "rounds": "2",
            "local_epochs": "1", "sampling_ratio": "1.0", "out_dir": "out"}

# The hostile values each key accepts: `partition` and `run` exit 0 on them with nothing on
# stderr, except the DIVERGES cases, which `run` takes to a divergence (exit 2).  Every other
# value exits 1 with an error naming the key and its line.
# _BIG holds the integers past int64, _HUGE those and the largest float value
_ZERO, _TINY, _BIG = {"0", "-0.0"}, {"5e-324"}, {str(2**63), str(10**21)}
_HUGE = _BIG | {"1e308"}
ACCEPTED = {
    **dict.fromkeys(("data", "synth_classes", "synth_per_class", "synth_test_per_class",
                     "synth_dim", "partition", "clients", "method", "rounds", "local_epochs",
                     "aggregation"), set()),
    "synth_separation": _ZERO | _TINY | _HUGE,
    # paths have no range, and with data = synth the idx paths go unread
    **dict.fromkeys(("idx_train_images", "idx_train_labels", "idx_test_images",
                     "idx_test_labels", "out_dir"), set(HOSTILE_VALUES)),
    "shards_per_client": _BIG,
    "dirichlet_alpha": _TINY | _HUGE,
    "hidden_dims": {"", "1,2"},
    "batch_size": _BIG,
    "sampling_ratio": _TINY,
    "lr0": _ZERO | _TINY | _HUGE,
    "momentum": _ZERO | _TINY,
    "weight_decay": _ZERO | _TINY | _HUGE,
    "lr_decay": _TINY,
    "beta": _ZERO | _TINY | _HUGE,
    "tau": _TINY | _HUGE,
    "mu": _ZERO | _TINY | _HUGE,
    "interp_lambda": _ZERO | _TINY,
    "seed": {"0", "-1"} | _BIG,
    "eval_stride": _BIG,
    "checkpoint_stride": {"0"} | _BIG,
}
DIVERGES = {("run", key, "1e308") for key in ("lr0", "weight_decay", "synth_separation")}

# Each case runs under its own alarm, so that a count that is accepted trains until it
# fails its case
_SWEEP_CHILD = """\
import warnings
from fednsim import cli, federation
warnings.simplefilter("error")  # a numpy warning fails its case, as an internal error
# one worker: a run trains both clients here instead of forking a helper for each run
# (tests/test_reference.py shows that the worker count changes no bit)
federation._workers = lambda clients: 1
commands, keys, values, path, workdir = json.loads(sys.argv[1])
os.chdir(workdir)  # where a run's relative out_dir goes
out = []
for command, base in commands:
    for key in keys:
        for value in values:
            with open(path, "w") as f:
                f.write(f"{key} = {value}\\n" + "".join(
                    f"{k} = {v}\\n" for k, v in base.items() if k != key))
            code, _, err = case(lambda: cli.main([command, path]))
            out.append([command, key, value, code, err])
print(json.dumps(out))
"""
# (key, value) cases that would train without end if accepted: each names its bound
ENDLESS = {(key, value) for key in ("rounds", "local_epochs")
           for value in (str(2**63), str(10**21))}


SWEEP_KEYS = [field.name for field in fields(ExperimentConfig)]
SWEEP_COMMANDS = [["partition", {}], ["run", RUN_BASE]]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The config path and each (command, key, value) case's (exit code, stderr), from one
    child process that runs every case."""
    assert set(ACCEPTED) == set(SWEEP_KEYS)
    tmp_path = tmp_path_factory.mktemp("sweep")
    path = tmp_path / "hostile.cfg"
    (tmp_path / "work").mkdir()
    child = run_child(_SWEEP_CHILD, json.dumps(
        [SWEEP_COMMANDS, SWEEP_KEYS, HOSTILE_VALUES, str(path), str(tmp_path / "work")]))
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert len(got) == len(SWEEP_COMMANDS) * len(SWEEP_KEYS) * len(HOSTILE_VALUES)
    return path, {(command, key, value): (code, err) for command, key, value, code, err in got}


# Each (key, value) case reports on its own, through both commands
@pytest.mark.parametrize("key,value", [(key, value) for key in SWEEP_KEYS
                                       for value in HOSTILE_VALUES])
def test_every_config_key_takes_every_hostile_value_to_a_result_or_a_named_error(
        sweep, key, value):
    path, got = sweep
    for command, _ in SWEEP_COMMANDS:
        code, err = got[command, key, value]
        case = (command, key, value, code, err)
        if (command, key, value) in DIVERGES:
            assert code == 2 and err.startswith("error: non-finite "), case
            assert err.count("\n") == 1, case
        elif value in ACCEPTED[key]:
            assert (code, err) == (0, ""), case
        else:  # a bad value names its key and line
            assert (code, err.count("\n")) == (1, 1), case
            assert err.startswith(f"error: {path}:1: {key}: "), case
            assert (key, value) not in ENDLESS or err.startswith(
                f"error: {path}:1: {key}: {key} must be <= "), case


def _inside(tree, name: str) -> set[int]:
    """ids of the nodes inside every function of `tree` called `name`."""
    return {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == name
            for node in ast.walk(fn)}


def _own_reads(source: str) -> list[int]:
    """Lines of `.read(...)` calls outside `read_file`."""
    tree = ast.parse(source)
    allowed = _inside(tree, "read_file")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "read" and id(node) not in allowed]


def _own_opens(source: str) -> list[int]:
    """Lines of `open(...)`, `os.open(...)` or any other `.open(...)` and
    `os.fdopen(...)` calls outside `open_file`."""
    tree = ast.parse(source)
    allowed = _inside(tree, "open_file")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and (isinstance(node.func, ast.Name) and node.func.id == "open"
                 or isinstance(node.func, ast.Attribute) and node.func.attr in ("open", "fdopen"))]


def test_every_open_goes_through_open_file():
    sources = {path.name: path.read_text() for path in sorted((SRC / "fednsim").glob("*.py"))}
    assert {name: lines for name, source in sources.items()
            if (lines := _own_opens(source))} == {}
    assert "def open_file(" in sources["model.py"]  # the guard is not vacuous
    assert _own_opens("def save(p):\n    return open(p, 'wb')\n") == [2]
    assert _own_opens("import os\ndef save(p):\n    return os.open(p, 1)\n") == [3]
    assert _own_opens("def open_file(p):\n    return open(p)\n") == []


def test_every_read_goes_through_read_file():
    sources = {path.name: path.read_text() for path in sorted((SRC / "fednsim").glob("*.py"))}
    assert {name: lines for name, source in sources.items() if (lines := _own_reads(source))} == {}
    assert "def read_file(" in sources["model.py"]  # the guard is not vacuous
    assert _own_reads("def load(f, n):\n    return f.read(n)\n") == [2]
    assert _own_reads("def load(f):\n    return f.read()\n") == [2]
    assert _own_reads("def read_file(f):\n    return f.read()\n") == []


def _subprocess_calls(source: str) -> list[int]:
    """Lines of calls into `subprocess`: through the module, by any name it is
    imported as, or through a name imported from it."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {alias.asname or alias.name for node in imports if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "subprocess"}
    names = {alias.asname or alias.name for node in imports
             if isinstance(node, ast.ImportFrom) and node.module == "subprocess"
             for alias in node.names}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
        and node.func.value.id in modules
        or isinstance(node.func, ast.Name) and node.func.id in names)]


def test_every_child_process_starts_through_run_child():
    tests = Path(__file__).parent
    sources = {path.name: path.read_text() for path in sorted(tests.glob("*.py"))}
    assert _subprocess_calls(sources.pop("children.py"))  # the guard is not vacuous
    assert {name: lines for name, source in sources.items()
            if (lines := _subprocess_calls(source))} == {}
    assert _subprocess_calls("import subprocess\nsubprocess.run(['ls'])\n") == [2]
    assert _subprocess_calls("import subprocess as sp\nsp.Popen(['ls'])\n") == [2]
    assert _subprocess_calls("from subprocess import run as go\ngo(['ls'])\n") == [2]
    assert _subprocess_calls("def run(argv):\n    return argv\nrun(['ls'])\n") == []


# case -> (argv, with {fifo}, {cfg}, {idx_cfg}, {out}, {closed} and {live} filled in;
# exit code; text its stderr holds, or for an exit 0 its stdout).  `load_params` calls
# the function.  Every FIFO has no peer; {closed} is the write end of a pipe whose read
# end is closed, {live} that of a pipe the test reads.
PEERLESS = {
    "config_fifo_no_writer": (["partition", "{fifo}", "--stats"], 0,
                              "strategy=iid clients=10 dataset_size=1000\n"),
    "idx_fifo_no_writer": (["partition", "{idx_cfg}"], 1, "{fifo}: truncated IDX header"),
    "metrics_fifo_no_writer": (["metrics", "{fifo}"], 1, "{fifo}: empty round CSV"),
    "checkpoint_fifo_no_writer": (["load_params", "{fifo}"], "ValueError",
                                  "{fifo}: truncated checkpoint header"),
    "partition_out_fifo_no_reader": (["partition", "{cfg}", "--out", "{fifo}"], 1,
                                     "error: cannot write {fifo}: "),
    "rounds_csv_fifo_no_reader": (["run", "{cfg}", "--out", "{out}"], 1,
                                  "error: cannot write {out}/rounds.csv: "),
    "partition_out_closed_pipe": (["partition", "{cfg}", "--out", "/dev/fd/{closed}"], 1,
                                  "error: cannot write /dev/fd/{closed}: "),
    "config_from_stdin": (["partition", "/dev/stdin", "--stats"], 0,
                          "strategy=iid clients=3 dataset_size=1000\n"),
    # the confirmation goes to stderr, so that stdout can take the JSON
    "partition_out_live_pipe": (["partition", "{cfg}", "--out", "/dev/fd/{live}"], 0, ""),
    # the child's own stdout is a pipe whose read end is closed; this case runs last
    "stats_to_closed_stdout": (["partition", "{cfg}", "--stats"], 1,
                               "error: cannot write standard output: Broken pipe"),
}

_PEERLESS_CHILD = """\
from fednsim import cli, model


def load(path):
    try:
        model.load_params(path)
        return "loaded"
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return type(exc).__name__


results = {}
for name, argv in json.loads(sys.argv[1]).items():
    call = (lambda: load(argv[1])) if argv[0] == "load_params" else (lambda: cli.main(argv))
    results[name] = case(call, stdout=name != "stats_to_closed_stdout")
with open(sys.argv[2], "w") as f:
    json.dump(results, f)
"""


def test_no_open_waits_on_a_fifo_and_a_closed_pipe_exits_1(tmp_path):
    fifo, out = tmp_path / "fifo", tmp_path / "out"
    os.mkfifo(fifo)
    out.mkdir()
    os.mkfifo(out / "rounds.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synth_per_class = 10\nsynth_test_per_class = 5\nclients = 3\n"
                   "hidden_dims = 4\nrounds = 2\n")
    idx_cfg = _idx_case(tmp_path / "idx", {"train-images": str(fifo)})
    closed_read, closed = os.pipe()
    stdout_read, stdout = os.pipe()
    live_read, live = os.pipe()  # the partition JSON of 100 samples fits its buffer
    os.close(closed_read)
    os.close(stdout_read)
    fill = {"fifo": fifo, "cfg": cfg, "idx_cfg": idx_cfg, "out": out, "closed": closed,
            "live": live}
    cases = {name: [arg.format(**fill) for arg in argv] for name, (argv, _, _) in PEERLESS.items()}
    try:  # the child's stdout is block-buffered, so that a flush can fail at exit
        child = run_child(_PEERLESS_CHILD, json.dumps(cases), str(tmp_path / "results.json"),
                          input="clients = 3\n", stdout=stdout, pass_fds=(closed, live))
    finally:
        os.close(closed)
        os.close(stdout)
        os.close(live)
    with open(live_read) as pipe:
        assert len(json.loads(pipe.read())) == 3  # one entry a client
    # nothing reaches the real stderr: no second error when the interpreter flushes stdout
    assert (child.returncode, child.stderr) == (0, "")
    got = json.loads((tmp_path / "results.json").read_text())

    for name, (_, code, text) in PEERLESS.items():
        got_code, got_out, got_err = got[name]
        text = text.format(**fill)
        assert got_code == code, (name, got_err)
        assert "internal error" not in got_err, (name, got_err)
        if code == 0:
            assert got_out.startswith(text), (name, got_out)
        else:
            assert got_err.count("\n") == 1 and text in got_err, (name, got_err)
    assert got["partition_out_live_pipe"][1:] == ["", f"wrote partition to /dev/fd/{live}\n"]

