"""Generators, loaders, splitting, and minibatch determinism."""

import re
import struct
import warnings

import numpy as np
import pytest

from calprune.config import build_datasets, resolve_config
from calprune.data import (Dataset, generate_gaussian_mixture, load_csv,
                           load_idx_pair, minibatches, mixture_means, mixture_posterior,
                           split_positions, stratified_split)


def test_mixture_sizes_and_determinism():
    a = generate_gaussian_mixture(2, 100, noise=0.0, seed=11)
    assert len(a) == 200
    assert np.bincount(a.y).tolist() == [100, 100]
    b = generate_gaussian_mixture(2, 100, noise=0.0, seed=11)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    c = generate_gaussian_mixture(2, 100, noise=0.0, seed=12)
    assert a.x.tobytes() != c.x.tobytes()


def test_mixture_label_flip_fraction():
    clean = generate_gaussian_mixture(2, 10000, noise=0.0, seed=3)
    noisy = generate_gaussian_mixture(2, 10000, noise=0.2, seed=3)
    assert clean.x.tobytes() == noisy.x.tobytes()  # same points, labels differ
    flipped = np.mean(clean.y != noisy.y)
    assert abs(flipped - 0.2) < 0.01


def per_class_mixture(n_classes, sizes, noise, seed):
    """The generator's per-class form: one rng.normal draw per class, then the
    flipped labels rewritten through a mask."""
    point_seed, flip_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(point_seed)
    means = mixture_means(n_classes)
    x = np.concatenate([rng.normal(loc=means[k], scale=1.0, size=(size, 2))
                        for k, size in enumerate(sizes)])
    y = np.concatenate([np.full(size, k, dtype=np.int64) for k, size in enumerate(sizes)])
    flip_rng = np.random.default_rng(flip_seed)
    u = flip_rng.random(len(y))
    offsets = flip_rng.integers(1, n_classes, size=len(y))
    flip = u < noise
    y[flip] = (y[flip] + offsets[flip]) % n_classes
    return x, y


@pytest.mark.parametrize("n_classes", [2, 3, 4, 10])
@pytest.mark.parametrize("noise", [0.0, 0.15])
def test_mixture_matches_per_class_draws_bitwise(n_classes, noise):
    """One standard-normal draw plus the repeated means gives the bytes of a
    draw per class, at equal and unequal class sizes and several seeds."""
    for seed in (0, 7, 12345):
        for sizes in ([25] * n_classes, [1 + 17 * k % 40 for k in range(n_classes)]):
            data = generate_gaussian_mixture(n_classes, sizes, noise=noise, seed=seed)
            x, y = per_class_mixture(n_classes, sizes, noise, seed)
            assert data.x.dtype == x.dtype and data.y.dtype == y.dtype
            assert data.x.tobytes() == x.tobytes()
            assert data.y.tobytes() == y.tobytes()


def test_mixture_rejects_bad_spec():
    with pytest.raises(ValueError):
        generate_gaussian_mixture(1, 100)
    with pytest.raises(ValueError):
        generate_gaussian_mixture(2, 100, noise=0.5)
    with pytest.raises(ValueError):
        generate_gaussian_mixture(2, [100])


def test_mixture_posterior_properties():
    data = generate_gaussian_mixture(4, 50, noise=0.15, seed=5)
    post = mixture_posterior(data.x, 4, 50, noise=0.15)
    np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(post > 0)
    # a point sitting on a class mean should favour that class
    on_mean = mixture_posterior(mixture_means(4), 4, 50, noise=0.0)
    assert np.argmax(on_mean, axis=1).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("args, problem", [
    ((1, 10), "n_classes must be an integer >= 2, got 1"),
    ((2, 0), "per_class must be an integer >= 1, got 0"),
    ((2, [10]), "need 2 per-class sizes"),
    ((2, 10, 0.5), r"noise must be in \[0, 0.5\), got 0.5"),
    ((2, 10, float("nan")), "noise must be"),
])
def test_mixture_posterior_checks_its_arguments(args, problem):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a bad argument raises, never warns
        with pytest.raises(ValueError, match=problem):
            mixture_posterior(np.zeros((1, 2)), *args)


def idx_fixture(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                truncate_pixels=0):
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    images_path = tmp_path / "images.idx"
    payload = pixels.tobytes()
    if truncate_pixels:
        payload = payload[:-truncate_pixels]
    images_path.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + payload)
    labels_path = tmp_path / "labels.idx"
    labels_path.write_bytes(struct.pack(">II", label_magic, len(labels))
                            + bytes(labels))
    return images_path, labels_path


def test_idx_roundtrip(tmp_path):
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 2, 2) * 20
    pixels[0, 0, 0] = 255
    images, labels = idx_fixture(tmp_path, pixels, [0, 1, 0])
    data = load_idx_pair(images, labels)
    assert data.x.shape == (3, 4)
    assert data.x[0, 0] == 1.0  # byte 255 scales to exactly 1.0
    np.testing.assert_array_equal(data.y, [0, 1, 0])


def test_idx_decodes_every_byte_value_bitwise(tmp_path):
    """Each pixel byte v decodes to exactly v / 255.0 as a float64."""
    values = np.arange(256, dtype=np.uint8)
    images, labels = idx_fixture(tmp_path, values.reshape(4, 8, 8), [0, 1, 2, 3])
    data = load_idx_pair(images, labels)
    assert data.x.shape == (4, 64) and data.x.dtype == np.float64
    expected = [value / 255.0 for value in range(256)]
    assert data.x.ravel().tobytes() == np.array(expected, dtype=np.float64).tobytes()


def test_idx_wrong_magic_in_labels_slot(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    images, labels = idx_fixture(tmp_path, pixels, [0, 1], label_magic=0x803)
    with pytest.raises(ValueError, match="0x00000801"):
        load_idx_pair(images, labels)


def test_idx_truncated_pixels(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    images, labels = idx_fixture(tmp_path, pixels, [0, 1], truncate_pixels=3)
    with pytest.raises(ValueError, match="offset 16"):
        load_idx_pair(images, labels)


def test_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    images, labels = idx_fixture(tmp_path, pixels, [0, 1, 1])
    with pytest.raises(ValueError, match="count mismatch"):
        load_idx_pair(images, labels)


def test_idx_declared_class_count(tmp_path):
    pixels = np.zeros((3, 2, 2), dtype=np.uint8)
    images, labels = idx_fixture(tmp_path, pixels, [0, 1, 0])
    assert load_idx_pair(images, labels, n_classes=4).n_classes == 4
    with pytest.raises(ValueError, match="labels.idx.*label 1 out of range"):
        load_idx_pair(images, labels, n_classes=1)


def test_csv_fixture(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,x1,y\n0.5,1.5,0\n-1.0,2.0,1\n")
    data = load_csv(path, "y")
    assert data.x.shape == (2, 2)
    np.testing.assert_array_equal(data.y, [0, 1])
    np.testing.assert_array_equal(data.x[1], [-1.0, 2.0])


@pytest.mark.parametrize("header", [["y", "a"], ["a", "y"]],
                         ids=["before_the_label_column", "before_a_feature_column"])
def test_csv_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path, header):
    """A CSV that starts with a UTF-8 byte order mark loads the same rows as
    one without, and a bad cell in its first column names that column plainly."""
    rows = [",".join(header)] + [",".join("1" if name == "y" else f"{v:.3f}" for name in header)
                                 for v in (0.5, -1.5)]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("\n".join(rows) + "\n", encoding="utf-8")
    marked.write_text("\n".join(rows) + "\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want, got = load_csv(plain, "y", n_classes=2), load_csv(marked, "y", n_classes=2)
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    rows[1] = "x," + rows[1].split(",", 1)[1]
    marked.write_text("\n".join(rows) + "\n", encoding="utf-8-sig")
    with pytest.raises(ValueError, match=f"column {header[0]!r}$"):
        load_csv(marked, "y", n_classes=2)


def test_csv_truncated_byte_order_mark_is_invalid_utf8(tmp_path):
    """The first two bytes of a byte order mark alone are not UTF-8; they are
    reported as such, not dropped to leave an empty file."""
    path = tmp_path / "cut.csv"
    path.write_bytes(b"\xef\xbb")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid UTF-8: "):
        load_csv(path, "y")


def test_csv_label_out_of_declared_range(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,x1,y\n0.5,1.5,2\n")
    with pytest.raises(ValueError, match="out of range"):
        load_csv(path, "y", n_classes=2)


def test_csv_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(empty, "y")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x0,y\n1.0,0\n2.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(ragged, "y")
    alpha = tmp_path / "alpha.csv"
    alpha.write_text("x0,y\nfoo,0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(alpha, "y")
    missing = tmp_path / "missing.csv"
    missing.write_text("x0,x1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="no column"):
        load_csv(missing, "y")
    frac = tmp_path / "frac.csv"
    frac.write_text("x0,y\n1.0,0.5\n")
    with pytest.raises(ValueError, match="integer-valued"):
        load_csv(frac, "y")


def test_sources_without_rows_or_features_name_their_file(tmp_path):
    images, labels = idx_fixture(tmp_path, np.zeros((0, 2, 2)), [])
    with pytest.raises(ValueError, match=f"^{re.escape(str(labels))}: no data rows$"):
        load_idx_pair(images, labels, n_classes=3)
    images, labels = idx_fixture(tmp_path, np.zeros((2, 0, 2)), [0, 1])
    with pytest.raises(ValueError, match=f"^{re.escape(str(images))}: no feature columns$"):
        load_idx_pair(images, labels)
    path = tmp_path / "data.csv"
    path.write_text("x0,y\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data rows$"):
        load_csv(path, "y", n_classes=2)
    path.write_text("y\n0\n1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no feature columns$"):
        load_csv(path, "y")


def test_csv_header_naming_a_column_twice_is_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,label,label\n0.5,0,0\n1.5,1,1\n")
    message = f"^{re.escape(str(path))}: header names column 'label' more than once$"
    with pytest.raises(ValueError, match=message):
        load_csv(path, "label")


@pytest.mark.parametrize("source", ["csv", "idx_pair"])
def test_test_source_must_have_the_training_feature_count(tmp_path, source):
    if source == "csv":
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("a,y\n0.5,0\n1.5,1\n-0.5,0\n-1.5,1\n")
        test.write_text("a,b,y\n0.5,0.0,0\n1.5,1.0,1\n")
        dataset = {"path": str(train), "test_path": str(test), "label_column": "y"}
        bad, widths = test, "2 features per row, the training source has 1"
    else:
        (tmp_path / "train").mkdir()
        (tmp_path / "test").mkdir()
        train = idx_fixture(tmp_path / "train", np.zeros((4, 4, 4)), [0, 1, 0, 1])
        test = idx_fixture(tmp_path / "test", np.zeros((2, 5, 5)), [0, 1])
        dataset = dict(zip(("images", "labels", "test_images", "test_labels"),
                           map(str, (*train, *test))))
        bad, widths = test[0], "25 features per row, the training source has 16"
    cfg = resolve_config({"dataset": {"source": source, "train_fraction": 0.5, **dataset}})
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {widths}$"):
        build_datasets(cfg)


def test_idx_pool_split_before_decoding_matches_the_decoded_pool_bitwise(tmp_path):
    """An uneven IDX pool split on its labels and decoded after the split gives
    the x, y and ids of load_idx_pair + stratified_split, for any splits asked for."""
    rng = np.random.default_rng(5)
    labels = rng.permutation(np.repeat(np.arange(4), [7, 3, 11, 5]))
    pixels = rng.integers(0, 256, (len(labels), 3, 3), dtype=np.uint8)
    (tmp_path / "pool").mkdir()
    (tmp_path / "test").mkdir()
    pool = idx_fixture(tmp_path / "pool", pixels, labels.tolist())
    test = idx_fixture(tmp_path / "test", pixels[:6], labels[:6].tolist())
    cfg = resolve_config({"dataset": {
        "source": "idx_pair", "seed": 9, "train_fraction": 0.7,
        **dict(zip(("images", "labels", "test_images", "test_labels"),
                   map(str, (*pool, *test))))}})
    reference = dict(zip(("train", "val"),
                         stratified_split(load_idx_pair(*pool), 0.7, seed=[9, 2])))
    for splits in (("train", "val", "test"), ("train", "test"), ("val", "test"), ("val",)):
        built = dict(zip(("train", "val", "test"), build_datasets(cfg, splits=splits)))
        assert (built["test"] is None) == ("test" not in splits)
        for name, want in reference.items():
            got = built[name]
            if name not in splits:
                assert got is None
                continue
            assert got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes() and got.ids.tobytes() == want.ids.tobytes()
            assert got.n_classes == want.n_classes == 4


def test_stratified_split_fractions():
    data = generate_gaussian_mixture(3, 100, seed=9)
    train, val = stratified_split(data, 0.9, seed=1)
    assert train.class_sizes().tolist() == [90, 90, 90]
    assert np.bincount(val.y).tolist() == [10, 10, 10]


def test_stratified_split_floor_rule():
    data = Dataset(np.zeros((3, 2)), np.array([0, 0, 0]), 1)
    train, val = stratified_split(data, 0.5, seed=1)
    assert len(train) == 1
    assert len(val) == 2


def test_stratified_split_partitions_exactly():
    data = generate_gaussian_mixture(4, 25, seed=10)
    train, val = stratified_split(data, 0.8, seed=2)
    ids = np.concatenate([train.ids, val.ids])
    assert sorted(ids.tolist()) == list(range(len(data)))
    np.testing.assert_array_equal(data.x[train.ids], train.x)
    np.testing.assert_array_equal(data.x[val.ids], val.x)


def test_stratified_split_deterministic():
    data = generate_gaussian_mixture(2, 50, seed=9)
    a, _ = stratified_split(data, 0.9, seed=4)
    b, _ = stratified_split(data, 0.9, seed=4)
    assert a.ids.tobytes() == b.ids.tobytes()


def test_stratified_split_rejects_tiny_class():
    data = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]), 2)
    with pytest.raises(ValueError, match="class 1"):
        stratified_split(data, 0.9, seed=0)


def test_stratified_split_rejects_a_class_left_out_of_training():
    """floor(0.4 * 2) = 0: none of class 1's rows would train."""
    data = Dataset(np.zeros((12, 2)), np.array([0] * 10 + [1] * 2), 2)
    with pytest.raises(ValueError, match=r"class 1 has 2 rows; train_fraction 0\.4"):
        stratified_split(data, 0.4, seed=0)


@pytest.mark.parametrize("labels", [[0, 0, 1, 1, 2, 2, 2], [0, 0, 1, 1, -1]],
                         ids=["label_high", "label_negative"])
def test_split_positions_refuses_labels_out_of_range(labels):
    """A label outside [0, K) is refused, not left out of both splits."""
    with pytest.raises(ValueError, match="^labels out of range for 2 classes$"):
        split_positions(np.array(labels), 2, 0.5, seed=0)


def test_dataset_defaults_ids_and_ema():
    data = Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), 2)
    assert data.ids.dtype == np.int64 and data.ids.tolist() == [0, 1, 2]
    assert data.class_sizes().tolist() == [1, 2]


@pytest.mark.parametrize("field, value, message", [
    ("x", np.zeros(4), "inconsistent shapes"),
    ("y", np.zeros(3, dtype=np.int64), "inconsistent shapes"),
    ("x", np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0], [0.0, 0.0]]), "finite"),
    ("x", np.array([[0.0, 1.0], [np.inf, 0.0], [0.0, 0.0], [0.0, 0.0]]), "finite"),
    ("y", np.array([0, 1, 2, 0]), "labels out of range"),
    ("y", np.array([0, -1, 1, 0]), "labels out of range"),
    ("ids", np.arange(3), "ids must be 4 unique values"),
    ("ids", np.array([4, 7, 4, 1]), "ids must be 4 unique values"),
    ("y", np.array([0.0, 1.0, 1.5, 0.0]), "y must be an integer array .* float64"),
    ("n_classes", 2.5, "n_classes must be an integer >= 1, got 2.5"),
], ids=["x_1d", "y_short", "x_nan", "x_inf", "label_high", "label_negative",
        "ids_short", "ids_repeated", "y_float", "classes_fractional"])
def test_dataset_rejects_broken_invariants(field, value, message):
    fields = {"x": np.zeros((4, 2)), "y": np.array([0, 1, 1, 0]), "n_classes": 2}
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        Dataset(**fields)


def test_minibatch_blocks():
    blocks = minibatches(np.zeros(10), 4, epoch=1, seed=0)
    assert [len(b) for b in blocks] == [4, 4, 2]
    covered = sorted(int(i) for block in blocks for i in block)
    assert covered == list(range(10))


def test_minibatch_determinism_and_epoch_variation():
    a = minibatches(np.zeros(64), 8, epoch=3, seed=5)
    b = minibatches(np.zeros(64), 8, epoch=3, seed=5)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    c = minibatches(np.zeros(64), 8, epoch=4, seed=5)
    assert any(x.tobytes() != y.tobytes() for x, y in zip(a, c))


def test_minibatch_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        minibatches(np.zeros(10), 0, epoch=1, seed=0)


def test_loader_outputs_finite_and_in_range():
    data = generate_gaussian_mixture(3, 40, noise=0.1, seed=21)
    assert np.all(np.isfinite(data.x))
    assert data.y.min() >= 0 and data.y.max() < 3
