"""Benchmark inputs: LIBSVM files shaped like the paper's datasets.

The files are generated here with plain numpy rather than with the package's
own generators, so a change to the package's data code cannot change the
inputs it is measured on.  Features are binary (value 1), as in the real
mushrooms and a9a files; labels follow the sign of a hidden linear score with
10% of them flipped, so the problem is not separable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    n: int
    dim: int
    nnz_choices: tuple[int, ...]  # per-row nonzero count, drawn uniformly
    labels: tuple[str, str]  # (positive, negative) label text


# mushrooms has exactly 22 one-hot features per row and labels {1, 2};
# a9a has 13 or 14 per row (13.9 on average) and labels {-1, +1}.
SHAPES = {
    "mushrooms": Shape(n=8124, dim=112, nnz_choices=(22,), labels=("1", "2")),
    "a9a": Shape(n=32561, dim=123, nnz_choices=(13, 14), labels=("+1", "-1")),
}


def libsvm_text(shape: Shape, seed: int) -> tuple[str, int]:
    """Text of one file and its total nonzero count, a pure function of `seed`."""
    rng = np.random.default_rng(seed)
    k = rng.choice(np.asarray(shape.nnz_choices), size=shape.n)
    # the first k[i] columns of a random permutation per row, sorted
    order = np.argsort(rng.random((shape.n, shape.dim)), axis=1)
    keep = np.arange(shape.dim)[None, :] < k[:, None]
    chosen = np.where(keep, order, shape.dim)
    chosen.sort(axis=1)
    hidden = rng.standard_normal(shape.dim + 1)
    hidden[shape.dim] = 0.0  # padding column contributes nothing
    score = hidden[chosen].sum(axis=1)
    positive = score >= np.median(score)
    positive ^= rng.random(shape.n) < 0.1
    tokens = [f"{j + 1}:1" for j in range(shape.dim)]
    pos_label, neg_label = shape.labels
    lines = []
    for i in range(shape.n):
        cols = chosen[i, : k[i]]
        lines.append(" ".join([pos_label if positive[i] else neg_label] + [tokens[c] for c in cols]))
    return "\n".join(lines) + "\n", int(k.sum())


def write_input(name: str, seed: int, directory: Path) -> dict:
    """Write `<directory>/<name>-<seed>` and return its description."""
    shape = SHAPES[name]
    text, nnz = libsvm_text(shape, seed)
    data = text.encode("ascii")
    path = directory / f"{name}-{seed}"
    path.write_bytes(data)
    return {
        "path": str(path),
        "shape": name,
        "seed": seed,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "n": shape.n,
        "dim": shape.dim,
        "nnz": nnz,
    }
