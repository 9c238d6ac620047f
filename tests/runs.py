"""How the tests tell two runs' outputs apart.

A run directory's outputs are digested as (the sha256 of each file in it, by
name; an 8-hex sha256 prefix of each rounds.csv data row, by its round; a
2-hex prefix of each of that row's cells, joined).  The golden tests pin
these digests and the invariance tests compare them between runs, so that
either names the first round and column that differ, or, when every row
holds, the files that differ.
"""

import hashlib
from pathlib import Path


def row_digests(csv_path) -> dict[int, str]:
    """The 8-hex sha256 prefix of each rounds.csv data row, by its round."""
    rows = Path(csv_path).read_text().splitlines()[1:]
    return {int(row.split(",", 1)[0]): hashlib.sha256(row.encode()).hexdigest()[:8] for row in rows}


def cell_digests(csv_path) -> dict[int, str]:
    """The 2-hex sha256 prefixes of each rounds.csv data row's cells, joined, by its round."""
    rows = Path(csv_path).read_text().splitlines()[1:]
    return {int(row.split(",", 1)[0]): "".join(hashlib.sha256(cell.encode()).hexdigest()[:2]
                                               for cell in row.split(",")) for row in rows}


def run_digests(run_dir: Path) -> tuple[dict[str, str], dict[int, str], dict[int, str]]:
    """The digests of the outputs in `run_dir`: (each file's sha256, by its
    name; rounds.csv's row digests; its cell digests)."""
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(run_dir.iterdir())}
    return files, row_digests(run_dir / "rounds.csv"), cell_digests(run_dir / "rounds.csv")


def first_difference(pins, got, header: list[str]) -> str:
    """Where the digests `got` first leave `pins`, both as `run_digests`
    returns them: the first round whose rounds.csv row differs and, when both
    hold that row, the first of its `header` columns whose cell differs; else
    the files whose digests differ."""
    (digests, pinned_rows, pinned_cells), (got_digests, rows, cells) = pins, got
    for t in sorted(rows.keys() | pinned_rows.keys()):
        if rows.get(t) == pinned_rows.get(t):
            continue
        where = f"rounds.csv first differs at round {t}"
        if t in cells and t in pinned_cells:
            pairs = zip(header, zip(*[iter(cells[t])] * 2), zip(*[iter(pinned_cells[t])] * 2))
            where += next((f", column {column}" for column, a, b in pairs if a != b), "")
        return where
    return "every rounds.csv row matches; " + ", ".join(sorted(
        key for key in digests.keys() | got_digests.keys()
        if got_digests.get(key) != digests.get(key))) + " differ"


def difference(pins, run_dir: Path) -> str | None:
    """None when the outputs in `run_dir` have the digests `pins`, else where
    they first differ (`first_difference`)."""
    got = run_digests(run_dir)
    if got == pins:
        return None
    header = (run_dir / "rounds.csv").read_text().split("\n", 1)[0].split(",")
    return first_difference(pins, got, header)
