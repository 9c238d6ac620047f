"""Tests for dataset synthesis, IDX parsing, and partitioning."""

import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fednsim.data import (
    PARTITION_STRATEGIES,
    ClientData,
    Dataset,
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxTruncatedError,
    PartitionError,
    PartitionSpec,
    dirichlet_partition,
    export_partition_json,
    iid_partition,
    in_local_distribution,
    make_partition,
    out_local_distribution,
    read_idx,
    shard_partition,
    synth_dataset,
)
from fednsim.rng import NS_SYNTH_MEANS, NS_SYNTH_SAMPLES, stream


class TestSynthDataset:
    def test_construction_counts(self):
        ds = synth_dataset(2, 5, 2, 1.0, seed=0)
        assert len(ds) == 10
        assert np.array_equal(np.bincount(ds.labels), [5, 5])

    def test_zero_separation_means_coincide(self):
        ds = synth_dataset(3, 2000, 4, 0.0, seed=1)
        means = [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
        for m in means[1:]:
            assert np.linalg.norm(m - means[0]) < 0.2

    def test_large_separation_centroid_classifier(self):
        ds = synth_dataset(4, 200, 6, 10.0, seed=2)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        d2 = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = np.mean(d2.argmin(axis=1) == ds.labels)
        assert acc > 0.99

    def test_deterministic(self):
        a = synth_dataset(3, 10, 5, 2.0, seed=3)
        b = synth_dataset(3, 10, 5, 2.0, seed=3)
        assert a.features.tobytes() == b.features.tobytes()

    def test_splits_share_means_but_not_samples(self):
        train = synth_dataset(2, 3000, 3, 8.0, seed=4, split=0)
        test = synth_dataset(2, 3000, 3, 8.0, seed=4, split=1)
        assert not np.array_equal(train.features[:10], test.features[:10])
        for c in range(2):
            m_train = train.features[train.labels == c].mean(axis=0)
            m_test = test.features[test.labels == c].mean(axis=0)
            assert np.linalg.norm(m_train - m_test) < 0.2

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 10, 5), (10, 7, 32), (4, 200, 6)])
    @pytest.mark.parametrize("seed,split,separation", [(0, 0, 2.5), (5, 1, 0.0), (2**40, 3, 9.0)])
    def test_same_bits_as_concatenated_blocks(self, shape, seed, split, separation):
        # the features as once written: one block per class, then one concatenate
        classes, per_class, dim = shape
        dirs = stream(seed, NS_SYNTH_MEANS).normal(size=(classes, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = separation * dirs
        rng = stream(seed, NS_SYNTH_SAMPLES, split)
        ref = np.concatenate([means[c] + rng.normal(size=(per_class, dim)) for c in range(classes)])
        ds = synth_dataset(classes, per_class, dim, separation, seed, split=split)
        assert ds.features.shape == ref.shape
        assert ds.features.tobytes() == ref.tobytes()


def write_idx_images(path, images: np.ndarray) -> None:
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray, magic: int = 0x00000801) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">II", magic, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


class TestReadIdx:
    def test_hand_built_fixture_exact_pixels(self, tmp_path):
        images = np.array(
            [[[0, 255], [255, 0]], [[255, 255], [0, 0]]], dtype=np.uint8
        )
        labels = np.array([1, 0], dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "labs", labels)
        ds = read_idx(tmp_path / "imgs", tmp_path / "labs")
        assert ds.features.shape == (2, 4)
        assert np.array_equal(ds.features[0], [0.0, 1.0, 1.0, 0.0])
        assert np.array_equal(ds.features[1], [1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(ds.labels, [1, 0])

    def test_label_file_with_image_magic(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((1, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "labs", np.zeros(1, dtype=np.uint8), magic=0x00000803)
        with pytest.raises(IdxBadMagicError):
            read_idx(tmp_path / "imgs", tmp_path / "labs")

    def test_truncated_pixels(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((2, 2, 2), dtype=np.uint8))
        data = (tmp_path / "imgs").read_bytes()
        (tmp_path / "imgs").write_bytes(data[:-3])
        write_idx_labels(tmp_path / "labs", np.zeros(2, dtype=np.uint8))
        with pytest.raises(IdxTruncatedError):
            read_idx(tmp_path / "imgs", tmp_path / "labs")

    def test_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "labs", np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxCountMismatchError):
            read_idx(tmp_path / "imgs", tmp_path / "labs")

    @pytest.mark.skipif(
        not os.environ.get("MNIST_DIR"), reason="set MNIST_DIR to run against real files"
    )
    def test_official_mnist_files(self):
        base = os.environ["MNIST_DIR"]
        ds = read_idx(
            os.path.join(base, "train-images-idx3-ubyte"),
            os.path.join(base, "train-labels-idx1-ubyte"),
        )
        assert len(ds) == 60000
        assert ds.dim == 784
        assert ds.num_classes == 10


def assert_exact_partition(partition, n):
    all_idx = np.concatenate([c.indices for c in partition])
    assert len(all_idx) == len(set(all_idx.tolist()))  # pairwise disjoint
    assert set(all_idx.tolist()) == set(range(n))  # full cover


class TestShardPartition:
    def test_small_example(self):
        ds = synth_dataset(2, 10, 2, 1.0, seed=0)  # 20 samples, 2 classes
        parts = shard_partition(ds, clients=2, shards_per_client=2, seed=0)
        assert all(len(p) == 10 for p in parts)
        assert_exact_partition(parts, 20)

    def test_single_client_gets_everything(self):
        ds = synth_dataset(2, 6, 2, 1.0, seed=0)
        (client,) = shard_partition(ds, clients=1, shards_per_client=3, seed=5)
        assert np.array_equal(client.indices, np.arange(12))

    def test_divisibility_error(self):
        ds = synth_dataset(2, 10, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="divisible"):
            shard_partition(ds, clients=3, shards_per_client=2, seed=0)

    def test_benchmark_scale_sizes(self):
        # 50000 samples, 100 clients, 2 shards each: shard 250, client 500
        labels = np.repeat(np.arange(10), 5000)
        ds = Dataset(np.zeros((50000, 1)), labels, 10)
        parts = shard_partition(ds, clients=100, shards_per_client=2, seed=1)
        assert all(len(p) == 500 for p in parts)
        sizes = {len(np.unique(ds.labels[p.indices])) for p in parts}
        assert sizes <= {1, 2}  # shards are single-class at this size
        assert_exact_partition(parts, 50000)

    def test_deterministic(self):
        ds = synth_dataset(4, 25, 2, 1.0, seed=0)
        a = shard_partition(ds, 5, 2, seed=7)
        b = shard_partition(ds, 5, 2, seed=7)
        assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))


class TestDirichletPartition:
    def test_exact_partition_over_seeds(self):
        ds = synth_dataset(5, 40, 2, 1.0, seed=0)
        for seed in range(20):
            parts = dirichlet_partition(ds, clients=7, alpha=0.3, seed=seed)
            assert_exact_partition(parts, len(ds))

    def test_huge_alpha_near_uniform(self):
        ds = synth_dataset(4, 250, 2, 1.0, seed=0)
        for seed in (0, 1, 2):
            parts = dirichlet_partition(ds, clients=5, alpha=1e6, seed=seed)
            for client in parts:
                p = in_local_distribution(client, ds)
                assert np.abs(p - 0.25).max() < 0.05

    def test_low_alpha_concentrates_classes(self):
        ds = synth_dataset(10, 100, 2, 1.0, seed=0)
        medians = []
        for seed in range(5):
            parts = dirichlet_partition(ds, clients=50, alpha=0.1, seed=seed)
            nonempty = [c for c in parts if len(c) > 0]
            classes = [int(np.count_nonzero(in_local_distribution(c, ds))) for c in nonempty]
            medians.append(np.median(classes))
        # recorded heterogeneity statistic: with alpha=0.1 most clients see few classes
        assert all(1 <= m <= 10 for m in medians)
        assert np.mean(medians) < 6

    def test_alpha_validation(self):
        ds = synth_dataset(2, 5, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            dirichlet_partition(ds, 2, alpha=0.0, seed=0)
        with pytest.raises(ValueError):
            dirichlet_partition(ds, 2, alpha=np.inf, seed=0)

    def test_overflowing_alpha_raises_partition_error(self):
        # the gamma draws of alpha = 1.7e308 sum to inf: the proportions would
        # deal only 2 of the 10 samples
        ds = synth_dataset(2, 5, 2, 1.0, seed=0)
        with pytest.raises(PartitionError, match="dirichlet_alpha"):
            dirichlet_partition(ds, 2, alpha=1.7e308, seed=0)

    def test_deterministic(self):
        ds = synth_dataset(3, 30, 2, 1.0, seed=0)
        a = dirichlet_partition(ds, 4, 0.5, seed=3)
        b = dirichlet_partition(ds, 4, 0.5, seed=3)
        assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))


class TestPartitionSpec:
    @pytest.mark.parametrize("strategy", ["iid", "sharding", "dirichlet"])
    def test_every_range_checked_under_every_strategy(self, strategy):
        with pytest.raises(ValueError, match="shards_per_client"):
            PartitionSpec(strategy, shards_per_client=0)
        for alpha in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha"):
                PartitionSpec(strategy, alpha=alpha)


class TestIidPartition:
    def test_near_equal_exact(self):
        ds = synth_dataset(3, 11, 2, 1.0, seed=0)  # 33 samples
        parts = iid_partition(ds, 4, seed=0)
        sizes = sorted(len(p) for p in parts)
        assert sizes == [8, 8, 8, 9]
        assert_exact_partition(parts, 33)


class TestDistributions:
    def test_in_local_counting(self):
        ds = Dataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]), 2)
        client = ClientData(0, np.arange(4))
        assert np.allclose(in_local_distribution(client, ds), [0.5, 0.5], atol=0)

    def test_single_class_onehot(self):
        ds = Dataset(np.zeros((3, 1)), np.array([1, 1, 1]), 3)
        client = ClientData(0, np.arange(3))
        assert np.array_equal(in_local_distribution(client, ds), [0.0, 1.0, 0.0])

    def test_three_class_counting(self):
        ds = Dataset(np.zeros((4, 1)), np.array([0, 0, 0, 1]), 3)
        client = ClientData(0, np.arange(4))
        assert np.allclose(in_local_distribution(client, ds), [0.75, 0.25, 0.0], atol=0)

    def test_empty_client_errors(self):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            in_local_distribution(ClientData(0, np.empty(0, dtype=np.int64)), ds)

    def test_out_local_uniform_fixed_point(self):
        p = np.full(6, 1 / 6)
        assert np.abs(out_local_distribution(p) - p).max() < 1e-15

    def test_out_local_onehot(self):
        assert np.allclose(out_local_distribution(np.array([1.0, 0.0, 0.0])), [0.0, 0.5, 0.5])

    def test_out_local_formula(self):
        got = out_local_distribution(np.array([0.5, 0.3, 0.2]))
        assert np.allclose(got, [0.25, 0.35, 0.40], atol=1e-15)

    def test_out_local_simplex_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(c) * rng.uniform(0.1, 3))
            q = out_local_distribution(p)
            assert abs(q.sum() - 1.0) < 1e-12
            assert q.min() >= 0.0 and q.max() <= 1.0 / (c - 1) + 1e-15

    def test_out_local_single_class_errors(self):
        with pytest.raises(ValueError):
            out_local_distribution(np.array([1.0]))


class TestPartitionExport:
    def test_json_round_trip(self, tmp_path):
        import json

        ds = synth_dataset(3, 10, 2, 1.0, seed=0)
        parts = shard_partition(ds, 3, 2, seed=0)
        path = tmp_path / "partition.json"
        export_partition_json(path, ds, parts)
        obj = json.loads(path.read_text())
        assert set(obj) == {"0", "1", "2"}
        for client in parts:
            entry = obj[str(client.client_id)]
            assert entry["indices"] == client.indices.tolist()
            assert abs(sum(entry["p"]) - 1.0) < 1e-12
            assert abs(sum(entry["p_tilde"]) - 1.0) < 1e-12


def _labelled(labels, num_classes):
    # partitioners read only the labels
    return Dataset(np.zeros((len(labels), 1)), labels, num_classes)


_DATASETS = st.integers(1, 6).flatmap(
    lambda c: st.lists(st.integers(0, c - 1), min_size=1, max_size=150).map(
        lambda labels: _labelled(labels, c)
    )
)
_SPECS = st.builds(
    PartitionSpec,
    strategy=st.sampled_from(PARTITION_STRATEGIES),
    clients=st.integers(1, 40),
    shards_per_client=st.integers(1, 6),
    alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    seed=st.integers(0, 2**64 - 1),
)


class TestPartitionProperties:
    # the known cases that must raise, pinned: which examples hypothesis draws
    # depends on the modules imported, so a `-k` run may not draw them
    @settings(max_examples=400, deadline=None)
    @given(_DATASETS, _SPECS)
    @example(_labelled([0] * 5 + [1] * 5, 2), PartitionSpec("dirichlet", clients=2, alpha=1.7e308))
    @example(_labelled([0] * 5 + [1] * 5, 2), PartitionSpec("sharding", clients=3, shards_per_client=1))
    def test_partition_invariants(self, dataset, spec):
        n = len(dataset)
        try:
            parts = make_partition(dataset, spec)
        except PartitionError:
            # what cannot be dealt: shards that do not divide the samples, and an
            # alpha whose Dirichlet draw overflows
            if spec.strategy == "sharding":
                assert n % (spec.clients * spec.shards_per_client)
            else:
                assert spec.strategy == "dirichlet" and spec.alpha * spec.clients > 1e300
            return
        assert spec.strategy != "sharding" or n % (spec.clients * spec.shards_per_client) == 0
        assert [c.client_id for c in parts] == list(range(spec.clients))
        for client in parts:
            idx = client.indices
            assert idx.dtype == np.int64 and idx.ndim == 1
            assert np.all(np.diff(idx) > 0)  # sorted, no repeats
            assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < n)
        dealt = np.concatenate([c.indices for c in parts])
        # pairwise disjoint, and together every sample: all three deal the whole set
        assert np.array_equal(np.sort(dealt), np.arange(n))
        again = make_partition(dataset, spec)
        assert all(a.indices.tobytes() == b.indices.tobytes() for a, b in zip(parts, again))
