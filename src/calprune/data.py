"""Synthetic dataset generation, IDX/CSV/JSON ingestion, splitting, minibatching.

All randomness flows through numpy's PCG64 (np.random.default_rng seeded via
SeedSequence), so every dataset, split and shuffle is reproducible from the
integers that seed it. The Gaussian mixture places class means on a circle of
radius 3 with isotropic unit covariance, which keeps the Bayes-optimal
posterior available in closed form.
"""

import csv
import io
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ranges import COUNT, check, require

MIXTURE_RADIUS = 3.0

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Labeled rows with stable original ids.

    Arrays enter through the constructor, which checks them once; ids default
    to the row positions."""
    x: np.ndarray
    y: np.ndarray
    n_classes: int
    ids: np.ndarray = None

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ValueError(f"inconsistent shapes x={self.x.shape} y={self.y.shape}")
        require(COUNT, self.n_classes, "n_classes")
        if self.y.dtype.kind not in "iu" or not np.can_cast(self.y.dtype, np.int64):
            raise ValueError(f"y must be an integer array within int64, got dtype {self.y.dtype}")
        n = len(self.y)
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features must be finite")
        if n and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise ValueError(f"labels out of range for {self.n_classes} classes")
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        elif self.ids.shape != (n,) or len(np.unique(self.ids)) != n:
            raise ValueError(f"ids must be {n} unique values, one per row")

    def __len__(self):
        return self.x.shape[0]

    def class_sizes(self):
        return np.bincount(self.y, minlength=self.n_classes)


def mixture_means(n_classes):
    """Class means evenly spaced on a circle of radius 3 in the plane."""
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    return MIXTURE_RADIUS * np.column_stack([np.cos(angles), np.sin(angles)])


def _class_sizes(n_classes, per_class, noise):
    """The K per-class sizes of a scalar or per-class `per_class`, after
    checking every generator argument against its range entry."""
    check("dataset.classes", n_classes)
    sizes = [per_class] * n_classes if np.isscalar(per_class) else list(per_class)
    if len(sizes) != n_classes:
        raise ValueError(f"need {n_classes} per-class sizes, got {sizes}")
    for size in sizes:
        check("dataset.train_per_class", size)
    check("dataset.noise", noise)
    return sizes


def generate_gaussian_mixture(n_classes, per_class, noise=0.0, seed=0):
    """Labeled 2-d points from K unit-covariance Gaussians, optional label flips.

    Points and flip decisions come from separate child seeds, so the same
    seed yields identical point clouds at every noise level. A flipped label
    moves to a uniformly random other class.
    """
    sizes = _class_sizes(n_classes, per_class, noise)
    point_seed, flip_seed = np.random.SeedSequence(seed).spawn(2)
    # one standard-normal draw for every class: rng.normal(loc=mean, scale=1.0)
    # is mean + 1.0 * z on the same z stream, so the bits are those of a draw per class
    x = np.random.default_rng(point_seed).standard_normal((sum(sizes), 2))
    x += np.repeat(mixture_means(n_classes), sizes, axis=0)
    y = np.repeat(np.arange(n_classes, dtype=np.int64), sizes)
    flip_rng = np.random.default_rng(flip_seed)
    u = flip_rng.random(len(y))
    offsets = flip_rng.integers(1, n_classes, size=len(y))
    y = np.where(u < noise, (y + offsets) % n_classes, y)
    return Dataset(x, y, n_classes)


def mixture_posterior(x, n_classes, per_class, noise=0.0):
    """Exact class posterior of the generator, including the label-flip channel."""
    x = np.asarray(x, dtype=np.float64)
    sizes = np.asarray(_class_sizes(n_classes, per_class, noise), dtype=np.float64)
    prior = sizes / sizes.sum()
    means = mixture_means(n_classes)
    sq = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    log_post = np.log(prior) - 0.5 * sq
    log_post -= log_post.max(axis=1, keepdims=True)
    clean = np.exp(log_post)
    clean /= clean.sum(axis=1, keepdims=True)
    return (1.0 - noise) * clean + noise * (1.0 - clean) / (n_classes - 1)


def _read_idx(path, magic, what):
    """(dimensions, uint8 payload) of the IDX file at `path`, read whole. The
    low byte of `magic` counts the dimensions; a short header, another magic
    or a payload shorter than the dimensions claim raise naming `path`."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = 4 * (1 + (magic & 0xFF))
    if len(data) < start:
        raise ValueError(f"{path}: truncated {what} header: expected {start} bytes at "
                         f"offset 0, got {len(data)}")
    found, *dims = struct.unpack_from(f">{start // 4}I", data)
    if found != magic:
        raise ValueError(f"{path}: expected {what} magic 0x{magic:08x} at offset 0, "
                         f"found 0x{found:08x}")
    size = math.prod(dims)
    if len(data) - start < size:
        raise ValueError(f"{path}: truncated {what} data: expected {size} bytes at "
                         f"offset {start}, got {len(data) - start}")
    return dims, np.frombuffer(data, dtype=np.uint8, count=size, offset=start)


def _class_count(x_path, x, y_path, y, n_classes):
    """The class count of features `x` read from `x_path` and int64 labels
    `y` read from `y_path`, whose rules raise naming the file that breaks
    them; `n_classes` defaults to the largest label plus one."""
    if not y.size:
        raise ValueError(f"{y_path}: no data rows")
    if not x.shape[1]:
        raise ValueError(f"{x_path}: no feature columns")
    if y.min() < 0:
        raise ValueError(f"{y_path}: negative label {y.min()}")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    elif y.max() >= n_classes:
        raise ValueError(
            f"{y_path}: label {int(y.max())} out of range for declared {n_classes} classes")
    if n_classes < 2:
        raise ValueError(f"{y_path}: the labels hold {n_classes} class(es); a classifier "
                         "needs at least 2")
    return n_classes


def read_idx_pair(images_path, labels_path, n_classes=None):
    """Big-endian IDX image/label pair, undecoded: (uint8 pixels, one
    flattened image per row; int64 labels; class count)."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, "image")
    (label_count,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label")
    if count != label_count:
        raise ValueError(
            f"count mismatch: {images_path} holds {count} images but "
            f"{labels_path} holds {label_count} labels")
    pixels, labels = pixels.reshape(count, rows * cols), labels.astype(np.int64)
    return pixels, labels, _class_count(images_path, pixels, labels_path, labels, n_classes)


def decode_pixels(pixels):
    """IDX pixel bytes scaled to [0, 1] as float64."""
    return np.divide(pixels, 255.0, dtype=np.float64)


def load_idx_pair(images_path, labels_path, n_classes=None):
    """Big-endian IDX image/label pair; pixels scaled to [0, 1] and flattened."""
    pixels, labels, n_classes = read_idx_pair(images_path, labels_path, n_classes)
    return Dataset(decode_pixels(pixels), labels, n_classes)


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {json.dumps(key)}")
        obj[key] = value
    return obj


def read_json(path, error=ValueError):
    """The JSON document in file `path`; malformed JSON, a key repeated in
    any object, or bytes that are not UTF-8 raise `error` naming `path`."""
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or a repeated key
        raise error(f"{path}: invalid JSON: {exc}") from None


def load_csv(path, label_column, n_classes=None):
    """Rectangular numeric UTF-8 CSV with a header (a leading byte order mark is
    skipped); one integer-valued label column."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: invalid UTF-8: {exc}") from None
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise ValueError(f"{path}: header names column {repeated[0]!r} more than once")
    if label_column not in header:
        raise ValueError(f"{path}: no column named {label_column!r} in header {header}")
    label_idx = header.index(label_column)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    features, labels = [], []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {row_no} has {len(row)} cells, header has {len(header)}")
        values = []
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or not np.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise ValueError(f"{path}: {kind} cell {cell!r} at row {row_no}, "
                                 f"column {header[col]!r}")
            values.append(value)
        label = values[label_idx]
        if label != int(label):
            raise ValueError(
                f"{path}: label {label} at row {row_no} is not integer-valued")
        if not -2.0 ** 63 <= label < 2.0 ** 63:
            raise ValueError(
                f"{path}: label {label} at row {row_no} is outside the int64 range")
        labels.append(int(label))
        features.append([values[i] for i in feature_idx])
    x, y = np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    return Dataset(x, y, _class_count(path, x, path, y, n_classes))


def split_positions(y, n_classes, train_fraction, seed):
    """Per-class seeded shuffle, then a floor(train_fraction * n_k) split.

    Returns the (train, validation) positions in `y` as int64 arrays. A
    class with fewer than 2 rows, or whose floor is 0, raises a ValueError
    naming the class. The floor uses exact rational arithmetic over the
    double value of train_fraction.
    """
    check("dataset.train_fraction", train_fraction)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    train_parts, val_parts = [], []
    for k in range(n_classes):
        positions = np.flatnonzero(y == k)
        if positions.size < 2:
            raise ValueError(f"class {k} has {positions.size} instance(s); need >= 2 to split")
        shuffled = positions[rng.permutation(positions.size)]
        take = int(Fraction(train_fraction) * positions.size)
        if take == 0:
            raise ValueError(f"class {k} has {positions.size} rows; train_fraction "
                             f"{train_fraction} puts none of them in training")
        train_parts.append(shuffled[:take])
        val_parts.append(shuffled[take:])
    return (np.concatenate(train_parts).astype(np.int64),
            np.concatenate(val_parts).astype(np.int64))


def stratified_split(data, train_fraction, seed):
    """(train, validation) Datasets of `data` split by `split_positions`; their
    ids are the rows' positions in `data`."""
    return tuple(Dataset(data.x[rows], data.y[rows], data.n_classes, ids=rows)
                 for rows in split_positions(data.y, data.n_classes, train_fraction, seed))


def minibatches(rows, batch_size, epoch, seed):
    """Seeded permutation of the positions 0..len(rows)-1 cut into consecutive blocks.

    The permutation is seeded by the (seed, epoch) pair; the final partial
    block is kept.
    """
    check("train.batch_size", batch_size)
    n = len(rows)
    perm = np.random.default_rng(np.random.SeedSequence([seed, epoch])).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]
