"""Sparse datasets in LIBSVM format: parsing, label binarization, splits, neighbors.

A dataset is one CSR record: `indptr`, 0-based feature `indices`, `values`,
one real `labels` entry per row, and the feature count `dim`.  Every other
module reads rows by position (`Dataset.row`), through the sparse matrix view
(`Dataset.matrix`), or through the per-row summaries defined here, so this
module is the only one that knows the layout.  Labels stay raw at parse time;
`binarize` maps them onto {-1, +1} for binary classification.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, TextIO

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse


class ParseError(ValueError):
    """Malformed LIBSVM input.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DataError(ValueError):
    """Degenerate or inconsistent dataset operation."""


# Shapes (n_examples, n_features) of the common LIBSVM binary benchmarks,
# used to sanity-check locally provided copies.
KNOWN_DATASET_SHAPES = {
    "a9a": (32561, 123),
    "connect-4": (67557, 126),
    "dna": (2000, 180),
    "gisette": (6000, 5000),
    "mnist": (60000, 780),
    "mushrooms": (8124, 112),
    "phishing": (11055, 68),
    "covtype": (581012, 54),
}


# the CSR fields of a Dataset and their dtypes
_ARRAYS = {"indptr": np.intp, "indices": np.intp, "values": np.float64, "labels": np.float64}


def _frozen(a, dtype) -> np.ndarray:
    """Read-only 1-D view of `a` as `dtype`; copies only to convert."""
    out = np.asarray(a, dtype=dtype).view()
    if out.ndim != 1:
        raise DataError(f"dataset arrays must be 1-D, got shape {out.shape}")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """n rows of sparse features with one real label each, in CSR form.

    Row i holds the entries indptr[i]:indptr[i+1] of `indices` (0-based
    feature numbers, strictly increasing, below `dim`) and of `values`
    (finite).  The arrays are validated here, so every dataset obeys these
    invariants whichever way it was made.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    dim: int

    def __post_init__(self):
        for name, dtype in _ARRAYS.items():
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        indptr, indices, values, labels = self.indptr, self.indices, self.values, self.labels
        if labels.size < 1:
            raise DataError("dataset must contain at least one example")
        if self.dim < 1:
            raise DataError(f"dim must be positive, got {self.dim}")
        nnz = indices.size
        if (
            indptr.size != labels.size + 1
            or indptr[0] != 0
            or indptr[-1] != nnz
            or values.size != nnz
            or (np.diff(indptr) < 0).any()
        ):
            raise DataError("indptr must rise from 0 to the entry count, one step per label")
        if nnz:
            if indices.min() < 0:
                raise DataError("feature indices must be >= 1")
            if indices.max() >= self.dim:
                raise DataError(f"feature index {int(indices.max()) + 1} exceeds dim {self.dim}")
            rising = indices[1:] > indices[:-1]
            starts = indptr[1:-1]
            rising[starts[(starts > 0) & (starts < nnz)] - 1] = True
            if not rising.all():
                raise DataError("feature indices must be strictly increasing within a row")
            if not np.isfinite(values).all():
                raise DataError("non-finite feature value")
        if not np.isfinite(labels).all():
            raise DataError("non-finite label")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.dim == other.dim and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAYS
        )

    __hash__ = None

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @cached_property
    def nnz(self) -> np.ndarray:
        """Stored entries of every row."""
        return np.diff(self.indptr)

    @cached_property
    def norm_sq(self) -> np.ndarray:
        """Squared Euclidean norm of every row; inf where it leaves float
        range, which `losses.smoothness` reports."""
        rows = np.repeat(np.arange(self.n), self.nnz)
        with np.errstate(over="ignore"):
            squares = self.values * self.values
        return np.bincount(rows, weights=squares, minlength=self.n)

    @cached_property
    def matrix(self) -> scipy.sparse.csr_matrix:
        """The rows as a scipy CSR matrix of shape (n, dim), sharing `values`
        (scipy keeps its own int32 copy of the index arrays when they fit).

        scipy.sparse is imported here, on first use: it takes about a third
        of a second to import, and only the risk sum needs the matrix."""
        import scipy.sparse

        return scipy.sparse.csr_matrix(
            (self.values, self.indices, self.indptr), shape=(self.n, self.dim), copy=False
        )

    @cached_property
    def _row_bounds(self) -> tuple[list[int], list[float]]:
        # plain lists: slicing with Python ints keeps per-step row access cheap
        return self.indptr.tolist(), self.labels.tolist()

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray, float]:
        """0-based feature indices, values and label of row i (0-based)."""
        bounds, labels = self._row_bounds
        lo, hi = bounds[i], bounds[i + 1]
        return self.indices[lo:hi], self.values[lo:hi], labels[i]

    def take(self, positions) -> Dataset:
        """The rows at 0-based `positions`, in that order."""
        positions = np.asarray(positions, dtype=np.intp)
        if positions.size and (positions.min() < 0 or positions.max() >= self.n):
            raise DataError(f"row positions must be in 0..{self.n - 1}")
        counts = self.nnz[positions]
        indptr = np.zeros(positions.size + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        entries = np.arange(indptr[-1]) + np.repeat(self.indptr[positions] - indptr[:-1], counts)
        return Dataset(
            indptr, self.indices[entries], self.values[entries], self.labels[positions], self.dim
        )

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, width) tables of every row's indices and values, at the widest
        row's width (at least 1): the row's entries first, then index `dim`
        with value 0."""
        width = max(int(self.nnz.max()), 1)
        filled = np.arange(width) < self.nnz[:, None]
        indices = np.full((self.n, width), self.dim, dtype=np.intp)
        values = np.zeros((self.n, width))
        indices[filled] = self.indices
        values[filled] = self.values
        return indices, values


def stack(parts: Sequence[Dataset], dim: int) -> Dataset:
    """The rows of every part, in order, as one dataset with `dim` features."""
    ends = np.cumsum([p.indptr[-1] for p in parts])
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.intp)] + [p.indptr[1:] + end - p.indptr[-1] for p, end in zip(parts, ends)]
    )
    return Dataset(
        indptr,
        np.concatenate([p.indices for p in parts]),
        np.concatenate([p.values for p in parts]),
        np.concatenate([p.labels for p in parts]),
        dim,
    )


@dataclass(frozen=True)
class NeighborSpec:
    """Replace the row at 1-based position `index` by row `row` (0-based) of `pool`."""

    index: int
    pool: Dataset
    row: int


# Lines per parse block: each block's tokens are checked and converted with a
# few whole-block operations, so parsing holds one block of text beside the
# output arrays.
PARSE_BLOCK = 1024
# the largest feature index an index array holds
_INDEX_MAX = int(np.iinfo(np.intp).max)
# index digits the block conversion sums in int64; longer ones go through int()
_INDEX_DIGITS = 18

_FEATURE_RE = re.compile(r"(-?\d+):(\S+)")


def parse_libsvm(source: str | TextIO | Iterable[str], dim: int | None = None) -> Dataset:
    """Parse LIBSVM text into a Dataset.

    Lines look like ``<label> <index>:<value> ...`` with 1-based, strictly
    increasing indices.  ``#`` starts a comment; empty lines are skipped.
    `dim` can force a feature count larger than the max observed index.
    Labels and values are read by Python's `float`, indices as `int` reads
    ``-?\\d+``.  A line holding a lone surrogate (how `load_libsvm` passes an
    undecodable byte) is not UTF-8 text.

    The lines are read PARSE_BLOCK at a time.  A block that fails a bulk
    check is read again line by line, only to name its first error.

    Raises ParseError (with the offending 1-based line number) on malformed
    input, the first malformed line winning.  Once every line is well formed,
    raises DataError if an index exceeds the index dtype (naming the
    largest), if no examples remain, or if `dim` is below the largest index.
    """
    # a str is read a line at a time, each ending at its "\n" as in a file
    lines = (m.group() for m in re.finditer(r".*\n|.+", source)) if isinstance(source, str) else iter(source)
    # entries per row, 0-based indices, values and labels of every block
    columns: tuple[list[np.ndarray], ...] = ([], [], [], [])
    too_large = 0  # the largest index beyond _INDEX_MAX, once one is seen
    line_no = 1
    while block := list(itertools.islice(lines, PARSE_BLOCK)):
        arrays = None if too_large else _parse_block(block)
        if arrays is None:
            peak = _check_lines(block, line_no)
            if peak <= _INDEX_MAX and not too_large:
                raise AssertionError(f"lines {line_no}+: the block checks reject well-formed lines")
            too_large = max(too_large, peak)
        else:
            for column, array in zip(columns, arrays):
                column.append(array)
        line_no += len(block)
    if too_large:
        raise DataError(f"feature index {too_large} is too large")
    joined = []
    for column in columns:
        joined.append(np.concatenate(column) if column else np.zeros(0))
        column.clear()  # the blocks' copies go as soon as they are joined
    nnz, indices, values, labels = joined
    if not labels.size:
        raise DataError("no examples in input")
    max_idx = int(indices.max()) + 1 if indices.size else 0
    final_dim = max(max_idx, 1)
    if dim is not None:
        if dim < max_idx:
            raise DataError(f"dim override {dim} is below max feature index {max_idx}")
        final_dim = max(dim, 1)
    indptr = np.zeros(labels.size + 1, dtype=np.intp)
    np.cumsum(nnz, out=indptr[1:])
    return Dataset(indptr, indices, values, labels, final_dim)


def _parse_block(lines: list[str]):
    """(entries per row, 0-based indices, values, labels) of the rows in
    `lines`, or None if a line is malformed or holds an index beyond
    _INDEX_MAX."""
    text = "\0 " + " \0 ".join(lines)
    if not text.isascii():  # a lone surrogate, comments included, is not UTF-8
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return None
    if "#" in text:
        text = "\0 " + " \0 ".join(line.partition("#")[0] for line in lines)
    if text.count("\0") != len(lines):
        return None  # a NUL outside a comment: no label or value holds one
    # one space between tokens, and a "\0" token before each line
    text = " ".join(text.split())
    wide = not text.isascii()
    codes = np.frombuffer(
        text.encode("utf-32-le") if wide else text.encode("ascii"), np.uint32 if wide else np.uint8
    )
    gaps = np.flatnonzero(codes == 32)
    starts = np.concatenate(([0], gaps + 1))
    ends = np.concatenate((gaps, [codes.size]))
    marker = codes[starts] == 0
    after_marker = np.concatenate(([False], marker[:-1]))
    label = after_marker & ~marker
    feature = ~(marker | after_marker)
    first = np.concatenate(([False], label[:-1]))[feature]  # a row's first feature
    fs, fe = starts[feature], ends[feature]

    # <index>:<value>: a well-formed block has one colon per feature token,
    # the k-th in the k-th token, with a value after it; none holds another
    colon = np.flatnonzero(codes == 58)
    if colon.size != fs.size:
        return None
    width = colon - fs
    if not ((width >= 1) & (colon < fe - 1)).all():
        return None
    # labels and values: each marker and each index with its colon blanked
    numbers = codes.copy()
    numbers[starts[marker]] = 32
    numbers[colon] = 32
    # indices of 1.._INDEX_DIGITS ASCII digits, summed digit by digit
    plain = width <= _INDEX_DIGITS
    width = np.where(plain, width, 0)
    index = np.zeros(fs.size, dtype=np.int64)
    for k in range(int(width.max(initial=0))):
        more = k < width
        at = np.where(more, fs + k, colon)
        digit = codes[at] - 48  # unsigned: a non-digit wraps above 9
        plain &= ~more | (digit <= 9)
        index = np.where(more, index * 10 + digit, index)
        numbers[at] = 32
    # other tokens (long, signed or non-ASCII digits, or malformed) one at a time
    for k in np.flatnonzero(~plain).tolist():
        m = _FEATURE_RE.fullmatch(text, int(fs[k]), int(fe[k]))
        if m is None:
            return None
        try:
            idx = int(m.group(1))
        except ValueError:
            return None
        if not 1 <= idx <= _INDEX_MAX:
            return None
        index[k] = idx
        numbers[fs[k]:colon[k]] = 32
    if (index < 1).any() or not (first[1:] | (index[1:] > index[:-1])).all():
        return None
    tokens = numbers.tobytes().decode("utf-32-le").split() if wide else numbers.tobytes().split()
    try:
        numbers = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        return None
    if not np.isfinite(numbers).all():
        return None
    is_label = label[~marker]  # which of the numbers are labels
    rows = np.cumsum(label)[feature] - 1
    nnz = np.bincount(rows, minlength=int(is_label.sum()))
    return nnz, (index - 1).astype(np.intp), numbers[~is_label], numbers[is_label]


def _check_lines(lines: Iterable[str], line_no: int) -> int:
    """Raise the ParseError of the first malformed line of `lines`, the first
    of which is line `line_no`; return the largest feature index if none is."""
    top = 0
    for line_no, line in enumerate(lines, start=line_no):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(line_no, "not UTF-8 text") from None
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"malformed label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(line_no, f"non-finite label {tokens[0]!r}")
        prev = 0
        for tok in tokens[1:]:
            m = _FEATURE_RE.fullmatch(tok)
            if m is None:
                raise ParseError(line_no, f"malformed feature token {tok!r}")
            try:
                idx = int(m.group(1))
            except ValueError:  # more digits than int() reads
                digits = len(m.group(1).lstrip("-"))
                raise ParseError(line_no, f"feature index with {digits} digits is out of range") from None
            if idx < 1:
                raise ParseError(line_no, f"feature index must be >= 1, got {idx}")
            if idx <= prev:
                raise ParseError(line_no, f"feature indices must be strictly increasing, got {idx} after {prev}")
            try:
                val = float(m.group(2))
            except ValueError:
                raise ParseError(line_no, f"malformed feature value {m.group(2)!r}") from None
            if not math.isfinite(val):
                raise ParseError(line_no, f"non-finite feature value {m.group(2)!r}")
            prev = idx
        top = max(top, prev)
    return top


def load_libsvm(path, dim: int | None = None) -> Dataset:
    # undecodable bytes arrive as lone surrogates, which the parser reports
    # with their line number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_libsvm(fh, dim=dim)


def serialize_libsvm(d: Dataset) -> str:
    """Render a dataset back to LIBSVM text with round-trip float precision."""
    out: list[str] = []
    for i in range(d.n):
        idx, vals, label = d.row(i)
        parts = [f"{label:.17g}"]
        parts.extend(f"{j}:{v:.17g}" for j, v in zip((idx + 1).tolist(), vals.tolist()))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def binarize_labels(raw: Iterable[float]) -> list[float]:
    """Map raw class labels onto {-1.0, +1.0}.

    Labels already in {-1, +1} pass through unchanged.  Otherwise the
    distinct labels are sorted ascending and the first ceil(k/2) classes
    map to +1, the rest to -1.  Fewer than two distinct labels is an error.
    """
    raw = np.fromiter(raw, dtype=np.float64)
    distinct = np.unique(raw)
    if distinct.size < 2:
        raise DataError(f"need at least two distinct labels, got {distinct.tolist()}")
    if distinct.tolist() == [-1.0, 1.0]:
        return raw.tolist()
    cut = math.ceil(distinct.size / 2)
    return np.where(raw <= distinct[cut - 1], 1.0, -1.0).tolist()


def binarize(d: Dataset) -> Dataset:
    """`d` with its labels mapped by `binarize_labels`."""
    return replace(d, labels=binarize_labels(d.labels))


def split_positions(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random partition of row positions 0..n-1 into sorted (train,
    held) arrays with floor(fraction*n) train positions.

    Raises DataError when either side would be empty.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    n_train = math.floor(fraction * n)
    if n_train < 1 or n_train >= n:
        raise DataError(f"degenerate split: {n_train} train of {n} total")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def split(d: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """The partition of `split_positions` as (train, held) datasets, both in
    the original row order."""
    train_pos, held_pos = split_positions(d.n, fraction, seed)
    return d.take(train_pos), d.take(held_pos)


def make_neighbor(d: Dataset, spec: NeighborSpec) -> Dataset:
    """Copy of `d` with row spec.index (1-based) replaced by row spec.row of spec.pool."""
    if not 1 <= spec.index <= d.n:
        raise DataError(f"neighbor index {spec.index} out of range 1..{d.n}")
    order = np.arange(d.n)
    order[spec.index - 1] = d.n
    return stack([d, spec.pool.take([spec.row])], d.dim).take(order)


def synthetic_binary_dataset(
    n: int,
    dim: int,
    seed: int,
    *,
    density: float = 0.5,
    flip: float = 0.1,
    scale: float = 1.0,
) -> Dataset:
    """Random sparse binary-classification dataset with a planted direction.

    Features have about `density * dim` nonzeros with norm close to `scale`;
    labels follow sign(<u, x>) for a hidden u, with a `flip` fraction of
    label noise so the problem is not separable.
    """
    if n < 1 or dim < 1:
        raise DataError(f"need n >= 1 and dim >= 1, got n = {n}, dim = {dim}")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    indices, values = [], []
    labels = np.empty(n)
    for i in range(n):
        k = max(1, rng.binomial(dim, density))
        idx = np.sort(rng.choice(dim, size=k, replace=False))
        vals = rng.standard_normal(k)
        vals *= scale / np.linalg.norm(vals)
        y = 1.0 if float(np.dot(vals, u[idx])) >= 0 else -1.0
        labels[i] = -y if rng.random() < flip else y
        indices.append(idx)
        values.append(vals)
    if (labels == labels[0]).all():
        # Extremely unlikely for the sizes used here; force the last label over.
        labels[-1] = -labels[-1]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum([v.size for v in values], out=indptr[1:])
    return Dataset(indptr, np.concatenate(indices), np.concatenate(values), labels, dim)
