"""Sparse datasets in LIBSVM format: parsing, label binarization, splits.

A dataset is one CSR record: `indptr`, 0-based feature `indices`, `values`,
one real `labels` entry per row, and the feature count `dim`.  Every other
module reads rows by position (`Dataset.row`), through the padded row tables
(`Dataset.padded`, `Dataset.signed_padded`) or the per-row summaries defined
here, so this module is the only one that knows the layout, apart from the
risk sum's sparse product, which reads the CSR arrays (and
`Dataset.signed_values`) as they are.  Labels stay raw at parse time;
`binarize` maps them onto {-1, +1} for binary classification.  A train set
and its neighbor are row positions into one dataset: `split_positions`
draws the train and held-out positions, a neighbor replaces one train
position by another, and `Dataset.take` gathers the rows of any positions.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, TextIO

import numpy as np


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
    def _row_bounds(self) -> tuple[list[int], list[float]]:
        # plain lists: slicing with Python ints keeps `row` cheap where it is
        # called row after row (`serialize_libsvm`), and its label a Python float
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

    @cached_property
    def _negated_labels(self) -> np.ndarray | None:
        """-label of every row if every label is +-1, else None."""
        return -self.labels if (np.abs(self.labels) == 1.0).all() else None

    @cached_property
    def signed_values(self) -> np.ndarray | None:
        """`values` with each row's entries times its -label: the rows -y x,
        whose products <w, -y x> are z = -y <w, x> bit for bit (up to the sign
        of a zero), since negating is exact and rounding to nearest is
        symmetric.  None unless every label is +-1: times another label a
        value may round."""
        signs = self._negated_labels
        return None if signs is None else self.values * np.repeat(signs, self.nnz)

    @cached_property
    def signed_padded(self) -> np.ndarray | None:
        """The values table of `padded` with each row times its -label, or
        None, as `signed_values`."""
        signs = self._negated_labels
        return None if signs is None else self.padded[1] * signs[:, None]


# Lines per parse block: each block's tokens are checked and converted with a
# few whole-block operations, so parsing holds one block of text beside the
# output arrays.
PARSE_BLOCK = 1024
# characters (of a str) or bytes (of a file) read at a time; a block ends at
# the last line end of a read, so it is at most PARSE_BLOCK lines and about
# this much text, more only where a line is longer
_READ_SIZE = 1 << 17
# the largest feature index an index array holds
_INDEX_MAX = int(np.iinfo(np.intp).max)

_FEATURE_RE = re.compile(r"(-?\d+):(\S+)")

# The block converter.  Each byte maps to a symbol: a digit to its value, the
# rest to one of these classes (a space is an ASCII str.isspace() character;
# every byte past ASCII is _OTHER).
_PLUS, _MINUS, _SPACE, _COLON, _HASH, _OTHER = range(10, 16)
# the most digits an integer token may have to be summed in int64: a label or
# value of up to 15 is below 2**53, so exact in float64; an index of up to 18
# is below 2**63
_VALUE_DIGITS = 15
_INDEX_DIGITS = 18


def _symbol_table() -> bytes:
    table = bytearray([_OTHER]) * 256
    for c in range(128):
        if chr(c).isspace():
            table[c] = _SPACE
    for d in range(10):
        table[ord("0") + d] = d
    for ch, sym in zip("+-:#", (_PLUS, _MINUS, _COLON, _HASH)):
        table[ord(ch)] = sym
    return bytes(table)


_SYMBOL_TABLE = _symbol_table()  # bytes.translate table of UTF-8 text


def parse_libsvm(source: str | TextIO | Iterable[str], dim: int | None = None) -> Dataset:
    """Parse LIBSVM text into a Dataset.

    Lines look like ``<label> <index>:<value> ...`` with 1-based, strictly
    increasing indices.  ``#`` starts a comment; empty lines are skipped.
    `dim` can force a feature count larger than the max observed index.
    Labels and values are read as Python's `float` reads them, indices as
    `int` reads ``-?\\d+``.  A line that is not UTF-8 text (a lone
    surrogate in a str, an undecodable byte in a file) is malformed.  A `str`
    source is read a block at a time, each line ending at its ``"\\n"``; any
    other source yields one line per item.

    The lines are read PARSE_BLOCK at a time as UTF-8 bytes, and each
    block's numbers are converted with whole-block numpy operations.  A
    label or value of the form ``[+-]?digits`` with at most 15 ASCII digits
    is summed digit by digit in int64; it is below 2**53, so exact in
    float64, and converting it is what `float` returns.  A minus sign
    negates, so ``-0`` is -0.0.  Every other label or value (a point, an
    exponent, more digits, ``_``, ``inf``, ``nan``) is read by `float`, all
    of a block's such tokens from one split of its bytes.  An index of 1 to
    18 ASCII digits is summed the same way.  A block that is not UTF-8,
    holds a longer index, or fails any other check (a token with a byte past
    ASCII, such as a non-ASCII digit or separator, fails one; a comment may
    hold any) is read line by line as str instead, each number by `float`
    or `int`: the same numbers, or the line's first error.

    Raises ParseError (with the offending 1-based line number) on malformed
    input, the first malformed line winning.  Once every line is well formed,
    raises DataError if an index exceeds the index dtype (naming the
    largest), if no examples remain, or if `dim` is below the largest index.
    """
    if isinstance(source, str):
        return _parse(_code_blocks(_text_chunks(source), universal=False), dim)
    return _parse(_line_blocks(iter(source)), dim)


def load_libsvm(path, dim: int | None = None) -> Dataset:
    """Parse the LIBSVM file at `path` as `parse_libsvm` does.  The file is
    UTF-8, read and converted as bytes; only a block that the bulk checks
    refuse is decoded, a line at a time, and a line with an undecodable byte
    is reported with its line number.  As in a file opened as text, a line
    ends at ``"\\n"``, ``"\\r\\n"`` or a lone ``"\\r"``."""
    with open(path, "rb") as fh:
        return _parse(_code_blocks(_file_chunks(fh), universal=True), dim)


def _parse(blocks: Iterable[tuple[np.ndarray, np.ndarray]], dim: int | None) -> Dataset:
    """The Dataset of `blocks`: the UTF-8 bytes of some lines and the end of
    each line (see `_parse_block`).  A block the bulk converter refuses goes
    to `_parse_lines`, which converts it or names its first error."""
    # entries per row, 0-based indices, values and labels of every block
    columns: tuple[list[np.ndarray], ...] = ([], [], [], [])
    too_large = 0  # the largest index beyond _INDEX_MAX, once one is seen
    line_no = 1
    for codes, bounds in blocks:
        arrays = None if too_large else _parse_block(codes, bounds)
        if arrays is None:
            arrays, top = _parse_lines(codes, bounds, line_no)
            if top > _INDEX_MAX:
                too_large = max(too_large, top)
        if not too_large:
            for column, array in zip(columns, arrays):
                column.append(array)
        line_no += bounds.size
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


def _text_chunks(text: str) -> Iterator[bytes]:
    """`text` in pieces of about _READ_SIZE characters, each ending at a
    ``"\\n"`` or at the end of the text, as UTF-8 (a lone surrogate passed
    through, for the parser to refuse)."""
    i = 0
    while i < len(text):
        j = text.rfind("\n", i, i + _READ_SIZE) + 1 or text.find("\n", i + _READ_SIZE) + 1 or len(text)
        yield text[i:j].encode("utf-8", "surrogatepass")
        i = j


def _file_chunks(fh) -> Iterator[bytes]:
    """The bytes of binary file `fh` in pieces, each ending at a ``"\\n"``
    or ``"\\r"`` or at the end of the file.  Each read is searched on its own
    for its last ``"\\n"``, or ``"\\r"`` that is not its last byte (that one
    may precede a ``"\\n"``); the reads since the last cut are joined once,
    at the next, so a long line costs no more than its length."""
    pieces: list[bytes] = []
    while chunk := fh.read(_READ_SIZE):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            pieces.append(chunk[:cut])
            yield b"".join(pieces)
            pieces = [chunk[cut:]]
        else:
            pieces.append(chunk)
    if rest := b"".join(pieces):
        yield rest


def _code_blocks(chunks: Iterable[bytes], universal: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(UTF-8 bytes, line ends) of the lines of `chunks`, which end at line
    ends, PARSE_BLOCK lines at a time.  A line ends after a ``"\\n"``; if
    `universal`, also after a ``"\\r"`` that no ``"\\n"`` follows.  Neither
    byte occurs inside a UTF-8 sequence, so these are the lines of the
    decoded text."""
    for chunk in chunks:
        codes = np.frombuffer(chunk, np.uint8)
        ends = np.flatnonzero(codes == 10)
        if universal:
            cr = np.flatnonzero(codes == 13)
            lone = cr[(cr + 1 == codes.size) | (codes[np.minimum(cr + 1, codes.size - 1)] != 10)]
            if lone.size:
                ends = np.union1d(ends, lone)
        bounds = ends + 1
        if not bounds.size or bounds[-1] < codes.size:
            bounds = np.append(bounds, codes.size)
        for lo in range(0, bounds.size, PARSE_BLOCK):
            base = int(bounds[lo - 1]) if lo else 0
            block = bounds[lo : lo + PARSE_BLOCK]
            yield codes[base : block[-1]], block - base


def _line_blocks(lines: Iterator[str]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(UTF-8 bytes, line ends) of `lines`, PARSE_BLOCK items at a time, each
    item one line.  A space follows each, so no token runs into the next."""
    while block := list(itertools.islice(lines, PARSE_BLOCK)):
        encoded = [line.encode("utf-8", "surrogatepass") for line in block]
        bounds = np.cumsum(np.fromiter(map(len, encoded), np.intp, len(encoded)) + 1)
        yield np.frombuffer(b" ".join([*encoded, b""]), np.uint8), bounds


def _symbols(codes: np.ndarray) -> np.ndarray | None:
    """The converter's symbol of every byte and then a space, so that a
    non-digit follows every token; or None if the bytes are not UTF-8."""
    text = codes.tobytes()
    if not text.isascii():
        try:
            text.decode("utf-8")
        except UnicodeDecodeError:
            return None
    sym = bytearray(text.translate(_SYMBOL_TABLE))
    sym.append(_SPACE)
    return np.frombuffer(sym, np.uint8)


def _parse_block(codes: np.ndarray, bounds: np.ndarray):
    """(entries per row, 0-based indices, values, labels) of the lines whose
    UTF-8 bytes are `codes`, line i ending before position bounds[i], or
    None if a bulk check fails: the bytes are not UTF-8, a line is
    malformed, an index has more than 18 digits or a token holds a byte past
    ASCII."""
    sym = _symbols(codes)
    if sym is None:
        return None
    size = codes.size
    body = sym[:size]
    hashes = np.flatnonzero(body == _HASH)
    if hashes.size:
        # a comment runs from the first "#" of its line to the line's end
        line = np.searchsorted(bounds, hashes, side="right")
        opens = np.ones(hashes.size, dtype=bool)
        np.not_equal(line[1:], line[:-1], out=opens[1:])
        depth = np.zeros(size + 1, dtype=np.int8)
        depth[hashes[opens]] = 1
        depth[bounds[line[opens]]] -= 1
        body[np.cumsum(depth[:size], dtype=np.int8) > 0] = _SPACE
    solid = np.zeros(size + 2, dtype=bool)
    np.not_equal(body, _SPACE, out=solid[1:-1])
    edges = np.flatnonzero(solid[1:] != solid[:-1])
    starts, stops = edges[0::2], edges[1::2]
    if not starts.size:
        return np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), np.zeros(0)
    # a line's first token is its label, the rest <index>:<value> features
    heads = np.searchsorted(starts, bounds[:-1])  # the first token from each line end on
    label = np.zeros(starts.size + 1, dtype=bool)
    label[0] = True
    label[heads] = True
    label = label[:-1]
    feature = ~label
    fs, fe = starts[feature], stops[feature]
    # a well-formed block has one colon per feature token, the k-th in the
    # k-th token, with an index before it and a value after it
    colon = np.flatnonzero(body == _COLON)
    if colon.size != fs.size or not ((colon > fs) & (colon < fe - 1)).all():
        return None
    fast, index = _integers(sym, fs, colon, _INDEX_DIGITS)
    if not fast.all() or (index < 1).any():
        return None
    nnz = np.diff(np.flatnonzero(label), append=starts.size) - 1
    rising = index[1:] > index[:-1]
    firsts = (np.cumsum(nnz) - nnz)[nnz > 0]  # each row's first feature
    rising[firsts[1:] - 1] = True
    if not rising.all():
        return None
    numbers = _numbers(codes, sym, np.concatenate((starts[label], colon + 1)), np.concatenate((stops[label], fe)))
    if numbers is None:
        return None
    return nnz, index - 1, numbers[nnz.size :], numbers[: nnz.size]


def _integers(sym: np.ndarray, starts: np.ndarray, stops: np.ndarray, most: int) -> tuple[np.ndarray, np.ndarray]:
    """(whether each span sym[starts[i]:stops[i]] is 1 to `most` ASCII digits,
    the int64 it spells if so).  Every span reads its k-th symbol at once;
    a span stops at its first non-digit, which is at its end (a non-digit
    follows every token) if the span is digits only."""
    count = stops - starts
    digit = np.take(sym, starts)
    live = digit < 10
    value = digit.astype(np.int64)
    read = live.astype(np.intp)  # the digits before the first non-digit
    for k in range(1, min(int(count.max(initial=0)), most)):
        if not live.any():
            break
        digit = np.take(sym[k:], starts, mode="clip")
        live &= digit < 10
        value = np.where(live, value * 10 + digit, value)
        read += live
    return (read == count) & (count >= 1) & (count <= most), value


def _numbers(codes: np.ndarray, sym: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray | None:
    """`float` of each token codes[starts[i]:stops[i]], or None if one is not
    a finite float of ASCII bytes."""
    sign = np.take(sym, starts)
    signed = (sign == _PLUS) | (sign == _MINUS)
    fast, value = _integers(sym, starts + signed, stops, _VALUE_DIGITS)
    numbers = value.astype(np.float64)  # exact: below 2**53 wherever `fast`
    np.negative(numbers, out=numbers, where=sign == _MINUS)
    slow = np.flatnonzero(~fast)
    if slow.size:
        # the other tokens, all at once and in the order of the text: the
        # block's bytes with every other byte a space, split and read by
        # float(), which reads no byte past ASCII
        lo, hi = starts[slow], stops[slow]
        order = np.argsort(lo, kind="stable")
        slow, lo, hi = slow[order], lo[order], hi[order]
        # runs of (space, token), then space
        runs = np.diff(np.concatenate(([0], np.stack((lo, hi), axis=1).ravel(), [codes.size])))
        keep = np.zeros(runs.size, dtype=np.uint8)
        keep[1::2] = 1
        keep = np.repeat(keep, runs)
        tokens = (codes * keep + (keep ^ 1) * 32).tobytes().split()
        try:
            values = np.fromiter(map(float, tokens), np.float64, slow.size)
        except ValueError:
            return None
        if not np.isfinite(values).all():
            return None
        numbers[slow] = values
    return numbers


def _parse_lines(codes: np.ndarray, bounds: np.ndarray, line_no: int) -> tuple[tuple | None, int]:
    """What `_parse_block` returns for the same lines, and their largest
    feature index; read a line at a time, decoded as UTF-8 and split as str,
    each number by `float` or `int`.  Raise the ParseError of the first
    malformed line, the first of which is line `line_no`.  The arrays are
    None if the largest index exceeds _INDEX_MAX."""
    text, ends = codes.tobytes(), bounds.tolist()
    nnz, indices, values, labels = [], [], [], []
    for line_no, lo, hi in zip(itertools.count(line_no), [0, *ends], ends):
        try:
            line = text[lo:hi].decode("utf-8")
        except UnicodeDecodeError:
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
            indices.append(idx)
            values.append(val)
            prev = idx
        nnz.append(len(tokens) - 1)
        labels.append(label)
    top = max(indices, default=0)
    if top > _INDEX_MAX:
        return None, top
    arrays = np.array(nnz, np.intp), np.array(indices, np.intp) - 1, np.array(values), np.array(labels)
    return arrays, top


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
    raw = raw if isinstance(raw, np.ndarray) and raw.dtype == np.float64 else np.fromiter(raw, np.float64)
    # the sorted labels where they change: np.unique's result without its
    # first-call import of numpy.ma (about 12 ms)
    ordered = np.sort(raw)
    changes = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=changes[1:])
    distinct = ordered[changes]
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


def available_memory() -> int | None:
    """Bytes this process can still take: `MemAvailable` of /proc/meminfo,
    or the cgroup's `memory.max` less its `memory.current` where those are
    readable and that is less; None where neither can be read."""
    figures = []
    try:
        with open("/proc/meminfo") as fh:
            figures += [int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open("/sys/fs/cgroup/memory.max") as fh:
            limit = fh.read().strip()
        if limit != "max":
            with open("/sys/fs/cgroup/memory.current") as fh:
                figures.append(int(limit) - int(fh.read()))
    except (OSError, ValueError):
        pass
    return min(figures, default=None)


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
    label noise so the problem is not separable.  Raises DataError, before
    the first draw, where the rows' estimated size exceeds
    `available_memory()`.
    """
    if n < 1 or dim < 1:
        raise DataError(f"need n >= 1 and dim >= 1, got n = {n}, dim = {dim}")
    # 16 bytes (an index and a value) per expected entry, at least one per
    # row, and one row's draw: a permutation of dim int64s, and k <= dim
    # sorted indices and values.  The rows are built in Python lists, so no
    # single allocation would fail at a size the host cannot hold
    estimate = 16 * n * max(1.0, density * dim) + 24 * dim
    available = available_memory()
    if available is not None and estimate > available:
        raise DataError(
            f"synthetic data of synth_n = {n} rows by synth_dim = {dim} features at density {density:g}"
            f" needs about {estimate / 2**20:.0f} MiB, more than the {available / 2**20:.0f} MiB available"
        )
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
