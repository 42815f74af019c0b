"""Sparse datasets in LIBSVM format: parsing, label binarization, splits, neighbors.

A dataset is an immutable tuple of examples.  Each example carries a sparse
feature vector with 1-based indices and a real label.  Labels stay raw at
parse time; `binarize` maps them onto {-1, +1} for binary classification.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TextIO

import numpy as np
import scipy.sparse as sp


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


@dataclass(frozen=True)
class SparseVector:
    """Sparse feature vector with strictly increasing 1-based indices."""

    indices: tuple[int, ...]
    values: tuple[float, ...]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DataError(f"dim must be positive, got {self.dim}")
        if len(self.indices) != len(self.values):
            raise DataError("indices and values length mismatch")
        prev = 0
        for i in self.indices:
            if i <= prev:
                raise DataError(f"indices must be strictly increasing and >= 1, got {self.indices}")
            prev = i
        if prev > self.dim:
            raise DataError(f"index {prev} exceeds dim {self.dim}")
        for v in self.values:
            if not math.isfinite(v):
                raise DataError(f"non-finite feature value {v}")

    @cached_property
    def idx0(self) -> np.ndarray:
        """0-based index array for numpy work."""
        return np.asarray(self.indices, dtype=np.intp) - 1

    @cached_property
    def vals(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    @cached_property
    def norm_sq(self) -> float:
        return float(np.dot(self.vals, self.vals))


@dataclass(frozen=True)
class Example:
    features: SparseVector
    label: float


@dataclass(frozen=True)
class NeighborSpec:
    """Replace the example at 1-based position `index` with `replacement`."""

    index: int
    replacement: Example


@dataclass(frozen=True)
class Dataset:
    examples: tuple[Example, ...]
    dim: int

    def __post_init__(self):
        if len(self.examples) < 1:
            raise DataError("dataset must contain at least one example")
        if self.dim < 1:
            raise DataError(f"dim must be positive, got {self.dim}")
        for ex in self.examples:
            if ex.features.indices and ex.features.indices[-1] > self.dim:
                raise DataError(
                    f"feature index {ex.features.indices[-1]} exceeds dataset dim {self.dim}"
                )

    @property
    def n(self) -> int:
        return len(self.examples)

    @cached_property
    def labels(self) -> np.ndarray:
        return np.asarray([ex.label for ex in self.examples], dtype=np.float64)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """CSR feature matrix of shape (n, dim)."""
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        for row, ex in enumerate(self.examples):
            indptr[row + 1] = indptr[row] + len(ex.features.indices)
        indices = np.empty(indptr[-1], dtype=np.intp)
        data = np.empty(indptr[-1], dtype=np.float64)
        for row, ex in enumerate(self.examples):
            lo, hi = indptr[row], indptr[row + 1]
            indices[lo:hi] = ex.features.idx0
            data[lo:hi] = ex.features.vals
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.dim))

    @cached_property
    def rows(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """Per-example (idx0, values, label) triples for fast row access."""
        return [(ex.features.idx0, ex.features.vals, ex.label) for ex in self.examples]


_FEATURE_RE = re.compile(r"^(-?\d+):(\S+)$")


def _parse_line(line_no: int, line: str) -> Example | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    tokens = body.split()
    try:
        label = float(tokens[0])
    except ValueError:
        raise ParseError(line_no, f"malformed label {tokens[0]!r}") from None
    if not math.isfinite(label):
        raise ParseError(line_no, f"non-finite label {tokens[0]!r}")
    indices: list[int] = []
    values: list[float] = []
    prev = 0
    for tok in tokens[1:]:
        m = _FEATURE_RE.match(tok)
        if m is None:
            raise ParseError(line_no, f"malformed feature token {tok!r}")
        idx = int(m.group(1))
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
        indices.append(idx)
        values.append(val)
        prev = idx
    # dim is finalized by the caller; use the line-local max for now.
    return Example(SparseVector(tuple(indices), tuple(values), max(prev, 1)), label)


def parse_libsvm(source: str | TextIO | Iterable[str], dim: int | None = None) -> Dataset:
    """Parse LIBSVM text into a Dataset.

    Lines look like ``<label> <index>:<value> ...`` with 1-based, strictly
    increasing indices.  ``#`` starts a comment, blank lines are skipped.
    `dim` can force a feature count larger than the max observed index.

    Raises ParseError (with the offending 1-based line number) on malformed
    input and DataError if no examples remain.
    """
    if isinstance(source, str):
        lines: Iterable[str] = io.StringIO(source)
    else:
        lines = source
    examples: list[Example] = []
    max_idx = 0
    for line_no, line in enumerate(lines, start=1):
        ex = _parse_line(line_no, line)
        if ex is None:
            continue
        if ex.features.indices:
            max_idx = max(max_idx, ex.features.indices[-1])
        examples.append(ex)
    if not examples:
        raise DataError("no examples in input")
    final_dim = max(max_idx, 1)
    if dim is not None:
        if dim < max_idx:
            raise DataError(f"dim override {dim} is below max feature index {max_idx}")
        final_dim = max(dim, 1)
    fixed = tuple(
        Example(SparseVector(ex.features.indices, ex.features.values, final_dim), ex.label)
        for ex in examples
    )
    return Dataset(fixed, final_dim)


def load_libsvm(path, dim: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, dim=dim)


def serialize_libsvm(d: Dataset) -> str:
    """Render a dataset back to LIBSVM text with round-trip float precision."""
    out: list[str] = []
    for ex in d.examples:
        parts = [f"{ex.label:.17g}"]
        parts.extend(f"{i}:{v:.17g}" for i, v in zip(ex.features.indices, ex.features.values))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def binarize_labels(raw: Iterable[float]) -> list[float]:
    """Map raw class labels onto {-1.0, +1.0}.

    Labels already in {-1, +1} pass through unchanged.  Otherwise the
    distinct labels are sorted ascending and the first ceil(k/2) classes
    map to +1, the rest to -1.  Fewer than two distinct labels is an error.
    """
    raw = [float(v) for v in raw]
    distinct = sorted(set(raw))
    if len(distinct) < 2:
        raise DataError(f"need at least two distinct labels, got {distinct}")
    if distinct == [-1.0, 1.0]:
        return raw
    cut = math.ceil(len(distinct) / 2)
    positive = set(distinct[:cut])
    return [1.0 if v in positive else -1.0 for v in raw]


def binarize(d: Dataset) -> Dataset:
    new_labels = binarize_labels(d.labels)
    return Dataset(
        tuple(Example(ex.features, lab) for ex, lab in zip(d.examples, new_labels)),
        d.dim,
    )


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
    the original example order."""
    train_pos, held_pos = split_positions(d.n, fraction, seed)
    train = Dataset(tuple(d.examples[i] for i in train_pos), d.dim)
    held = Dataset(tuple(d.examples[i] for i in held_pos), d.dim)
    return train, held


def make_neighbor(d: Dataset, spec: NeighborSpec) -> Dataset:
    """Copy of `d` with the example at spec.index (1-based) replaced."""
    if not 1 <= spec.index <= d.n:
        raise DataError(f"neighbor index {spec.index} out of range 1..{d.n}")
    if spec.replacement.features.indices:
        if spec.replacement.features.indices[-1] > d.dim:
            raise DataError("replacement example exceeds dataset dim")
    examples = list(d.examples)
    examples[spec.index - 1] = Example(
        SparseVector(
            spec.replacement.features.indices,
            spec.replacement.features.values,
            d.dim,
        ),
        spec.replacement.label,
    )
    return Dataset(tuple(examples), d.dim)


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
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    examples = []
    labels_seen = set()
    for _ in range(n):
        k = max(1, rng.binomial(dim, density))
        idx = np.sort(rng.choice(dim, size=k, replace=False)) + 1
        vals = rng.standard_normal(k)
        vals *= scale / np.linalg.norm(vals)
        margin = float(np.dot(vals, u[idx - 1]))
        y = 1.0 if margin >= 0 else -1.0
        if rng.random() < flip:
            y = -y
        labels_seen.add(y)
        examples.append(
            Example(SparseVector(tuple(int(i) for i in idx), tuple(float(v) for v in vals), dim), y)
        )
    if len(labels_seen) < 2:
        # Extremely unlikely for the sizes used here; force the last label over.
        ex = examples[-1]
        examples[-1] = Example(ex.features, -ex.label)
    return Dataset(tuple(examples), dim)
