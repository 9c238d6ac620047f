"""Dataset synthesis, IDX ingestion, and non-IID client partitioning.

A `Dataset` is a dense float64 feature matrix plus integer labels.
Partitions are lists of `ClientData` index sets into a shared dataset;
every partition here is exact: index sets are pairwise disjoint and
cover the dealt samples.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .rng import NS_PARTITION, NS_SYNTH_MEANS, NS_SYNTH_SAMPLES, stream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

PARTITION_STRATEGIES = ("sharding", "dirichlet", "iid")


class IdxFormatError(ValueError):
    """Base error for IDX files that are malformed or cannot be read."""


class IdxBadMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


class PartitionError(ValueError):
    """The partition settings do not fit the dataset."""


@dataclass
class Dataset:
    features: np.ndarray  # (N, d) float64
    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if len(self.features) != len(self.labels) or len(self.labels) < 1:
            raise ValueError("need equally many features and labels, at least one sample")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels out of range [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class ClientData:
    client_id: int
    indices: np.ndarray  # sorted int64 indices into a shared Dataset

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PartitionSpec:
    strategy: str = "iid"
    clients: int = 10
    shards_per_client: int = 2
    alpha: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}, expected one of {PARTITION_STRATEGIES}"
            )
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.shards_per_client < 1:
            raise ValueError(f"shards_per_client must be >= 1, got {self.shards_per_client}")
        if not (0.0 < self.alpha < np.inf):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


def synth_dataset(
    num_classes: int,
    per_class_n: int,
    dim: int,
    separation: float,
    seed: int,
    split: int = 0,
) -> Dataset:
    """Gaussian blobs: one unit-covariance cloud per class.

    Class means sit at `separation` times distinct random unit directions
    drawn from the seed; `split` selects an independent sample stream over
    the same means (0 = train, 1 = test, ...).  Samples are class-major
    and there are exactly `per_class_n` per class.
    """
    if min(num_classes, per_class_n, dim) < 1:
        raise ValueError("num_classes, per_class_n and dim must all be >= 1")
    if separation < 0.0:
        raise ValueError("separation must be >= 0")
    mean_rng = stream(seed, NS_SYNTH_MEANS)
    dirs = mean_rng.normal(size=(num_classes, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs

    sample_rng = stream(seed, NS_SYNTH_SAMPLES, split)
    # one class at a time into the final array, so only one class's draw is extra
    feats = np.empty((num_classes * per_class_n, dim))
    for c, block in enumerate(feats.reshape(num_classes, per_class_n, dim)):
        np.add(means[c], sample_rng.normal(size=(per_class_n, dim)), out=block)
    labels = np.repeat(np.arange(num_classes), per_class_n)
    return Dataset(feats, labels, num_classes)


def _read_idx_header(f, path, expected_magic: int, ndims: int) -> tuple[int, ...]:
    head = f.read(4 * (1 + ndims))
    if len(head) != 4 * (1 + ndims):
        raise IdxTruncatedError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", head[:4])[0]
    if magic != expected_magic:
        raise IdxBadMagicError(
            f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    return struct.unpack(f">{ndims}I", head[4:])


def read_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX image/label file pair.

    Pixels are scaled to [0, 1] by dividing by 255.  Raises a distinct
    error for a wrong magic number, a truncated file, and an image/label
    count mismatch, and IdxFormatError naming the path for a file that
    cannot be opened or read (missing, a directory).
    """
    try:
        with open(images_path, "rb") as f:
            n, rows, cols = _read_idx_header(f, images_path, IDX_IMAGES_MAGIC, 3)
            raw = f.read(n * rows * cols)
            if len(raw) != n * rows * cols:
                raise IdxTruncatedError(f"{images_path}: expected {n * rows * cols} pixel bytes")
            features = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols) / 255.0

        with open(labels_path, "rb") as f:
            (n_labels,) = _read_idx_header(f, labels_path, IDX_LABELS_MAGIC, 1)
            raw = f.read(n_labels)
            if len(raw) != n_labels:
                raise IdxTruncatedError(f"{labels_path}: expected {n_labels} label bytes")
            labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    except OSError as exc:
        raise IdxFormatError(f"cannot read IDX file {exc.filename}: {exc.strerror}") from None

    if n != n_labels:
        raise IdxCountMismatchError(f"{n} images but {n_labels} labels")
    return Dataset(features, labels, int(labels.max()) + 1)


def shard_partition(dataset: Dataset, clients: int, shards_per_client: int, seed: int) -> list[ClientData]:
    """Label-sorted equal shards, dealt at random.

    Indices are sorted by (label, original index) and cut into
    clients * shards_per_client contiguous shards; a seeded permutation
    deals `shards_per_client` shards to each client.  A client can end up
    with two shards of the same class.
    """
    n = len(dataset)
    total_shards = clients * shards_per_client
    if n % total_shards != 0:
        raise PartitionError(
            f"sharding cuts the {n} training samples into clients * shards_per_client = "
            f"{clients} * {shards_per_client} = {total_shards} equal shards, "
            f"but {n} is not divisible by {total_shards}"
        )
    shard_size = n // total_shards
    order = np.lexsort((np.arange(n), dataset.labels))  # label, ties by original index
    shards = order.reshape(total_shards, shard_size)
    deal = stream(seed, NS_PARTITION).permutation(total_shards)
    out = []
    for k in range(clients):
        mine = shards[deal[k * shards_per_client : (k + 1) * shards_per_client]]
        out.append(ClientData(k, np.sort(mine.ravel())))
    return out


def dirichlet_partition(dataset: Dataset, clients: int, alpha: float, seed: int) -> list[ClientData]:
    """Per-class Dirichlet split of sample indices across clients.

    For each class an independent Dirichlet(alpha) vector over clients is
    drawn and the class's samples are divided proportionally, using
    largest-remainder rounding so every sample is assigned exactly once.
    Clients may receive zero samples of a class, or zero samples overall.
    An alpha so large that the draw overflows (near 1e308 / clients) gives
    proportions that do not sum to 1 and raises PartitionError.
    """
    if not (0.0 < alpha < np.inf):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    assigned = [[] for _ in range(clients)]
    for c in range(dataset.num_classes):
        idx_c = np.flatnonzero(dataset.labels == c)
        if len(idx_c) == 0:
            continue
        rng = stream(seed, NS_PARTITION, c)
        props = rng.dirichlet(np.full(clients, alpha))
        if not abs(props.sum() - 1.0) < 1e-9:  # the gamma draws overflowed to inf
            raise PartitionError(
                f"dirichlet_alpha = {alpha!r} is too large to draw class proportions "
                f"for {clients} clients"
            )
        idx_c = rng.permutation(idx_c)
        counts = _largest_remainder(props, len(idx_c))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for k in range(clients):
            assigned[k].append(idx_c[offsets[k] : offsets[k + 1]])
    return [
        ClientData(k, np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64))
        for k, parts in enumerate(assigned)
    ]


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total`, proportional to `proportions`.

    Ties in the fractional parts go to the lowest index.
    """
    exact = proportions * total
    counts = np.floor(exact).astype(np.int64)
    short = total - counts.sum()
    if short > 0:
        # stable sort => among equal remainders the lowest index wins
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def iid_partition(dataset: Dataset, clients: int, seed: int) -> list[ClientData]:
    """Random near-equal split (sizes differ by at most one)."""
    perm = stream(seed, NS_PARTITION).permutation(len(dataset))
    chunks = np.array_split(perm, clients)
    return [ClientData(k, np.sort(chunk)) for k, chunk in enumerate(chunks)]


def make_partition(dataset: Dataset, spec: PartitionSpec) -> list[ClientData]:
    if spec.strategy == "sharding":
        return shard_partition(dataset, spec.clients, spec.shards_per_client, spec.seed)
    if spec.strategy == "dirichlet":
        return dirichlet_partition(dataset, spec.clients, spec.alpha, spec.seed)
    return iid_partition(dataset, spec.clients, spec.seed)


def in_local_distribution(client: ClientData, dataset: Dataset) -> np.ndarray:
    """Empirical class frequencies of the client's samples."""
    if len(client) == 0:
        raise ValueError(f"client {client.client_id} has no samples")
    counts = np.bincount(dataset.labels[client.indices], minlength=dataset.num_classes)
    return counts / counts.sum()


def out_local_distribution(p: np.ndarray) -> np.ndarray:
    """Complement distribution (1 - p_c) / (C - 1); uniform maps to uniform."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] < 2:
        raise ValueError("need at least 2 classes")
    return (1.0 - p) / (p.shape[-1] - 1)


def export_partition_json(path, dataset: Dataset, partition: list[ClientData]) -> None:
    """Client id -> {indices, p, p_tilde, size}; empty clients keep empty vectors."""
    obj = {}
    for client in partition:
        if len(client) > 0:
            p = in_local_distribution(client, dataset)
            p_tilde = out_local_distribution(p)
        else:
            p = np.zeros(dataset.num_classes)
            p_tilde = np.zeros(dataset.num_classes)
        obj[str(client.client_id)] = {
            "size": len(client),
            "indices": client.indices.tolist(),
            "p": p.tolist(),
            "p_tilde": p_tilde.tolist(),
        }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
