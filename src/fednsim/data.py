"""Dataset synthesis, IDX ingestion, and non-IID client partitioning.

A `Dataset` is a dense float64 feature matrix plus integer labels.
Partitions are lists of `ClientData` index sets into a shared dataset;
every partition here is exact: index sets are pairwise disjoint and
cover the dealt samples.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .losses import _check_labels, _int64_labels
from .model import MAX_FLOATS, read_file, sized_part, write_file
from .rng import NS_PARTITION, NS_SYNTH_MEANS, NS_SYNTH_SAMPLES, standard_normal, stream

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
        self.labels = _int64_labels(self.labels, self.num_classes)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if len(self.features) != len(self.labels) or len(self.labels) < 1:
            raise ValueError("need equally many features and labels, at least one sample")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        _check_labels(self.labels, self.num_classes)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def missing_classes(self) -> list[int]:
        """The classes without a sample, ascending; a test set must have none."""
        return np.flatnonzero(self.class_counts() == 0).tolist()


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
        if not 1 <= self.clients <= MAX_FLOATS:  # one array holds a client per element
            raise ValueError(f"clients must be >= 1 and <= {MAX_FLOATS}, got {self.clients}")
        if self.shards_per_client < 1:
            raise ValueError(f"shards_per_client must be >= 1, got {self.shards_per_client}")
        if not (0.0 < self.alpha < np.inf):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


def _check_separation(separation: float, name: str = "separation") -> None:
    """The one valid range of the synthetic class-mean separation."""
    if not (0.0 <= separation < np.inf):
        raise ValueError(f"{name} must be finite and >= 0, got {separation}")


def _check_synth_counts(num_classes: int, per_class_n: int, dim: int) -> None:
    """The one valid range of a synthetic split's counts: >= 2 classes, the
    others >= 1, and no more features in all than one array can hold."""
    features = int(num_classes) * int(per_class_n) * int(dim)  # Python ints do not overflow
    if num_classes < 2 or min(per_class_n, dim) < 1 or features > MAX_FLOATS:
        raise ValueError(f"synthetic counts must be >= 2 classes, >= 1 per class and >= 1 dims "
                         f"and make at most {MAX_FLOATS} features, got {num_classes} classes x "
                         f"{per_class_n} per class x {dim} dims")


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
    _check_synth_counts(num_classes, per_class_n, dim)
    _check_separation(separation)
    mean_rng = stream(seed, NS_SYNTH_MEANS)
    dirs = mean_rng.normal(size=(num_classes, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs

    # The classes' draws, one after another from one stream, as one call
    # would give them, drawn on every CPU.  Each element is means[c] +
    # (0.0 + z), as `normal()` would give: its loc add of 0.0 turns a -0.0
    # draw into 0.0.  z + (means[c] + 0.0) gives the same bits in one pass:
    # where z and means[c] are zeros, both sums are 0.0 whatever their signs.
    feats = standard_normal((num_classes, per_class_n, dim), seed, NS_SYNTH_SAMPLES, split)
    feats += means[:, None, :] + 0.0
    labels = np.repeat(np.arange(num_classes), per_class_n)
    return Dataset(feats.reshape(-1, dim), labels, num_classes)


def _idx_payload(path, magic: int, ndims: int) -> tuple[list[int], memoryview]:
    """The dimensions and payload bytes of the IDX file at `path`."""
    data = read_file(path, "IDX file", IdxFormatError)
    head = sized_part(data, 0, 4 * (1 + ndims), path, "IDX header", IdxTruncatedError)
    found, *dims = struct.unpack(f">{1 + ndims}I", head)
    if found != magic:
        raise IdxBadMagicError(f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}")
    return dims, sized_part(data, len(head), math.prod(dims), path, "IDX payload", IdxTruncatedError)


def read_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX image/label file pair.

    Pixels are scaled to [0, 1] by dividing by 255.  Raises a distinct
    error for a wrong magic number, a truncated file (checked before any
    array is made; bytes past the payload are ignored), and an image/label
    count mismatch, and IdxFormatError naming the path for a file that
    cannot be opened or read (missing, a directory) or holds no images.
    """
    (n, rows, cols), pixels = _idx_payload(images_path, IDX_IMAGES_MAGIC, 3)
    (n_labels,), label_bytes = _idx_payload(labels_path, IDX_LABELS_MAGIC, 1)
    if n != n_labels:
        raise IdxCountMismatchError(f"{images_path}: {n} images, but {labels_path}: "
                                    f"{n_labels} labels")
    if n == 0:
        raise IdxFormatError(f"{images_path}: no images")
    features = np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset(features, labels, int(labels.max()) + 1)


def shard_partition(dataset: Dataset, clients: int, shards_per_client: int, seed: int) -> list[ClientData]:
    """Label-sorted equal shards, dealt at random.

    Indices are sorted by (label, original index) and cut into
    clients * shards_per_client contiguous shards; a seeded permutation
    deals `shards_per_client` shards to each client.  A client can end up
    with two shards of the same class.
    """
    PartitionSpec("sharding", clients, shards_per_client)  # checks the ranges
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
    PartitionSpec("dirichlet", clients, alpha=alpha)  # checks the ranges
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
    PartitionSpec("iid", clients)  # checks the ranges
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


def client_distributions(dataset: Dataset, partition: list[ClientData]) -> dict:
    """Client id -> (p, p_tilde) of each client with samples, in partition order."""
    dists = {}
    for client in partition:
        if len(client) > 0:
            p = in_local_distribution(client, dataset)
            dists[client.client_id] = (p, out_local_distribution(p))
    return dists


def export_partition_json(path, partition: list[ClientData], dists: dict, classes: int) -> None:
    """Client id -> {indices, p, p_tilde, size}, from the partition's
    `client_distributions`; empty clients get zero vectors."""
    zeros = np.zeros(classes)
    obj = {}
    for client in partition:
        p, p_tilde = dists.get(client.client_id, (zeros, zeros))
        obj[str(client.client_id)] = {
            "size": len(client),
            "indices": client.indices.tolist(),
            "p": p.tolist(),
            "p_tilde": p_tilde.tolist(),
        }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    write_file(path, text.encode("utf-8"))
