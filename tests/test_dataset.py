import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import csr_matrix, parse_libsvm_per_token, stack
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sgdm_stability import dataset
from sgdm_stability.dataset import (
    PARSE_BLOCK,
    DataError,
    Dataset,
    ParseError,
    binarize,
    binarize_labels,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
    split_positions,
    synthetic_binary_dataset,
)
from sgdm_stability.optimizer import HyperParams, SampleStream, coupled_distance_batch


def rows_dataset(rows, dim):
    """Dataset from (1-based indices, values, label) rows."""
    ends = np.cumsum([0] + [len(idx) for idx, _, _ in rows])
    indices = [i - 1 for idx, _, _ in rows for i in idx]
    values = [v for _, vals, _ in rows for v in vals]
    return Dataset(ends, indices, values, [label for _, _, label in rows], dim)


def features(d, i):
    """(1-based indices, values) of row i as tuples."""
    idx, vals, _ = d.row(i)
    return tuple((idx + 1).tolist()), tuple(vals.tolist())


class TestParse:
    def test_basic_line(self):
        d = parse_libsvm("+1 1:0.5 3:-2.0\n")
        assert d.n == 1
        assert d.dim == 3
        assert d.labels[0] == 1.0
        assert features(d, 0) == ((1, 3), (0.5, -2.0))

    def test_label_only_line(self):
        d = parse_libsvm("-1\n")
        assert d.labels[0] == -1.0
        assert features(d, 0)[0] == ()

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n+1 1:1.0  # trailing\n\n-1 2:3.5\n"
        d = parse_libsvm(text)
        assert d.n == 2
        assert d.dim == 2
        assert features(d, 1)[1] == (3.5,)

    def test_tabs_and_multiple_spaces(self):
        d = parse_libsvm("1\t1:2.0   4:1.5\n")
        assert features(d, 0)[0] == (1, 4)

    def test_dim_is_max_index(self):
        d = parse_libsvm("1 7:1\n-1 2:1\n")
        assert d.dim == 7

    def test_dim_override_grows(self):
        d = parse_libsvm("1 2:1\n", dim=10)
        assert d.dim == 10

    def test_dim_override_below_max_rejected(self):
        with pytest.raises(DataError):
            parse_libsvm("1 5:1\n", dim=3)

    @pytest.mark.parametrize("form", ["str", "lines", "file"], ids=[pytest.HIDDEN_PARAM, "lines", "file"])
    @pytest.mark.parametrize(
        "text,frag",
        [
            ("x 1:1\n", "label"),
            ("1 1:abc\n", "value"),
            ("1 junk\n", "token"),
            ("1 0:1\n", "index"),
            ("1 -2:1\n", "index"),
            ("1 2:1 2:3\n", "increasing"),
            ("1 3:1 2:1\n", "increasing"),
            ("1 1:inf\n", "non-finite"),
            ("inf 1:1\n", "non-finite"),
            ("1 " + "9" * 4301 + ":1\n", "4301 digits is out of range"),
            ("1 1:1 # caf\udce9\n", "not UTF-8"),
        ],
    )
    def test_malformed_rejected(self, text, frag, form, tmp_path):
        # the same error from a str, from its lines and from a file of its bytes
        parse, source = parse_libsvm, text
        if form == "lines":
            source = text.splitlines(keepends=True)
        elif form == "file":
            parse, source = load_libsvm, tmp_path / "d.txt"
            source.write_text(text, encoding="utf-8", errors="surrogateescape")
        got = outcome(parse, source)
        assert got[0] is ParseError and frag in got[1]
        assert got == outcome(parse_libsvm, text)

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 1:1\n1 1:1\n1 bad\n")
        assert exc.value.line_no == 3
        assert "line 3" in str(exc.value)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            parse_libsvm("# nothing here\n")

    def test_undecodable_byte_named_by_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"1 1:1\n" * 1500 + b"1 2:\xff\n")
        with pytest.raises(ParseError, match=r"^line 1501: not UTF-8 text$"):
            load_libsvm(path)
        path.write_bytes(b"x 1:1\n1 2:\xff\n")  # an earlier error wins
        with pytest.raises(ParseError, match="^line 1: malformed label"):
            load_libsvm(path)
        path.write_bytes("1 1:1 # caf\u00e9\n".encode())
        assert load_libsvm(path) == parse_libsvm("1 1:1\n")


def outcome(parse, source, dim=None):
    """What `parse` makes of `source`: the Dataset's dim and array bytes, or
    its error's type, message and line number."""
    try:
        d = parse(source, dim=dim)
    except (ParseError, DataError) as e:
        return type(e), str(e), getattr(e, "line_no", None)
    return d.dim, *((a.dtype.str, a.tobytes()) for a in (d.indptr, d.indices, d.values, d.labels))


# Labels and values of every class: integers the block conversion sums
# (signed, leading zeros, -0, 15 digits), integers it leaves to float() (16
# digits, 2**53 + 1, over 15 digits once leading zeros count), and what only
# float() reads: "1.", ".5", exponents at and beyond 10**+-22, 22 and 23
# digits after the point, subnormal and underflowing decimals, "_" and
# Arabic-Indic digits.
LABELS = [
    "1", "-1", "+1", "2", "0", "1.5e3", "-0.25", "1_0", "\u0661", "-0", "1.", "+.5e-3", "1e22", "1e-23",
    "9007199254740993", "4.9e-324", "\u0661.\u0665",
]
VALUES = [
    "1", "-0.5", "1e-3", "+2", ".5", "5.", "1_0", "-0", "1E+2", "007", "0.1000000000000000055511151231257827",
    "-007", "123456789012345", "-000000000000000123", "1234567890123456", "9007199254740993",
    "0.9999999999999999", "+.5e-3", "1.e5",
    "1e22", "-1e-22", "1e23", "1e-23", "2.5E-0023", "12345e-26", "4.9e-324", "2.2250738585072014e-308", "1e-400",
    "-0.0", "0" * 40 + "1.5", "\u0661.\u0665", "1_000.5", "0." + "0" * 21 + "1", "0." + "0" * 22 + "1",
]
INDEX_ZEROS = ["", "", "", "0", "000", "0" * 20]
COMMENTS = ["# note", "#1 2:3", "# a:b # c", "#", "# caf\u00e9 \x00"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\x1c", "\u3000"]
ENDINGS = ["\n", "\n", "\r\n"]
# digits that int() and float() read as 0-9 and \d matches
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# lines with one fault each, and the lines beyond the index dtype
BAD_LINES = [
    "x 1:1", "1.2.3", "inf 1:1", "nan", "-Infinity 2:1",  # label
    "1 junk", "1 :1", "1 1:", "1 a:1", "1 1 :2", "1 \u0661x:1", "1 +1:1",  # token shape
    "1 0:1", "1 -3:1", "1 -0:1", "1 " + "0" * 20 + ":1",  # index below 1
    "1 2:1 2:3", "1 3:1 2:1", "1 5:1 00005:2", "1 99999999999999999999:1 3:1",  # order
    "1 1:abc", "1 2:1:2", "1 1:1,5", "1 1:0x10", "1 1:1\x00",  # value
    "1 1:inf", "1 1:nan", "1 2:-infinity",  # non-finite value
    "1 1:1e400", "1e309 1:1", "1 2:-1.8e308", "1 1:+nan",  # overflowing decimals
    "1 1:1e", "1 1:.", "1 1:1..2", "1 1:1e5.5", "1 1:--1", "1 1:1e+", "1 1:e5",  # malformed numbers
    "+. 1:1", "- 1:1", "1 1:+",  # a sign without digits
    "1 99999999999999999999:1", "1 1:1 9223372036854775808:2",  # beyond the index dtype
    "1 9223372036854775807:1",  # the largest index, well formed
]


@st.composite
def libsvm_lines(draw):
    """Well-formed LIBSVM lines, and the largest index they hold."""
    lines, top = [], 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        ending = draw(st.sampled_from(ENDINGS))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + ending)
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(COMMENTS)) + ending)
            continue
        indices = sorted(draw(st.sets(st.integers(1, 300), max_size=6)))
        tokens = [draw(st.sampled_from(LABELS))]
        for i in indices:
            digits = str(i) if draw(st.integers(0, 9)) else str(i).translate(ARABIC_INDIC)
            value = draw(st.sampled_from(VALUES) | st.floats(allow_nan=False, allow_infinity=False).map(repr))
            tokens.append(f"{draw(st.sampled_from(INDEX_ZEROS))}{digits}:{value}")
        sep = draw(st.sampled_from(SEPARATORS))
        line = sep.join(tokens)
        if draw(st.booleans()):
            line = sep + line
        if draw(st.booleans()):
            line += " " + draw(st.sampled_from(COMMENTS))
        lines.append(line + ending)
        top = max([top, *indices])
    return lines, top


def a9a_like_lines(n):
    """n lines shaped like a9a's: a +-1 label and 14 unit features."""
    return [("+1 " if i % 3 else "-1 ") + " ".join(f"{j}:1" for j in range(1 + i % 7, 124, 9)) + "\n" for i in range(n)]


class TestBlockParse:
    """The block parser against the per-token loop it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=libsvm_lines(),
        block=st.integers(1, 5),
        extra_dim=st.none() | st.integers(0, 3),
        as_lines=st.booleans(),
    )
    def test_well_formed_input(self, data, block, extra_dim, as_lines):
        lines, top = data
        dim = None if extra_dim is None else top + extra_dim
        source = lines if as_lines else "".join(lines)
        with mock.patch.object(dataset, "PARSE_BLOCK", block):
            got = outcome(parse_libsvm, source, dim)
        assert got == outcome(parse_libsvm_per_token, source, dim)

    @settings(max_examples=150, deadline=None)
    @given(
        data=libsvm_lines(),
        block=st.integers(1, 5),
        faults=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(BAD_LINES)), min_size=1, max_size=2),
    )
    def test_corrupted_input(self, data, block, faults):
        lines, _ = data
        for at, bad in faults:
            lines.insert(at % (len(lines) + 1), bad + "\n")
        text = "".join(lines)
        with mock.patch.object(dataset, "PARSE_BLOCK", block):
            got = outcome(parse_libsvm, text)
        assert got == outcome(parse_libsvm_per_token, text)

    @pytest.mark.parametrize("at", [0, PARSE_BLOCK - 1, PARSE_BLOCK, 2 * PARSE_BLOCK - 1, 2 * PARSE_BLOCK])
    def test_error_at_block_edges(self, at):
        lines = a9a_like_lines(2 * PARSE_BLOCK + 1)
        lines[at] = "1 3:1 junk\n"
        text = "".join(lines)
        got = outcome(parse_libsvm, text)
        assert got == (ParseError, f"line {at + 1}: malformed feature token 'junk'", at + 1)
        assert got == outcome(parse_libsvm_per_token, text)

    @pytest.mark.parametrize("n", [PARSE_BLOCK - 1, PARSE_BLOCK, PARSE_BLOCK + 1])
    def test_line_counts_around_a_block(self, n):
        text = "".join(a9a_like_lines(n))
        assert parse_libsvm(text).n == n
        assert outcome(parse_libsvm, text) == outcome(parse_libsvm_per_token, text)

    def test_largest_index_beyond_dtype_named_after_every_block(self):
        lines = a9a_like_lines(3 * PARSE_BLOCK)
        lines[5] = "1 99999999999999999999:1\n"
        lines[-1] = "1 123456789012345678901234567890:1\n"
        text = "".join(lines)
        assert outcome(parse_libsvm, text) == (
            DataError, "feature index 123456789012345678901234567890 is too large", None
        )
        lines[-2] = "1 junk\n"  # a malformed line anywhere wins
        assert outcome(parse_libsvm, "".join(lines))[2] == len(lines) - 1

    def test_only_refused_blocks_reach_the_per_line_parser(self, tmp_path):
        # the shapes of real files stay on the bulk path, comments of any
        # text included; a token with a non-ASCII separator or digit does not
        lines = a9a_like_lines(2 * PARSE_BLOCK + 1)
        comment = " # caf\u00e9 \u3000\u0661\n"
        bulk = [
            "".join(lines),
            "".join(line.replace("\n", comment) if i % 500 == 0 else line for i, line in enumerate(lines)),
            "".join(line.replace(":1 ", ":0.25 ").replace(":1\n", ":-1.5e-3\n") for line in lines),
        ]
        refused = ["1\u30001:1\n", "1 \u0661:1\n"]
        path = tmp_path / "d.txt"
        for text in bulk + refused:
            path.write_text(text, encoding="utf-8")
            want = outcome(parse_libsvm_per_token, text)
            with mock.patch.object(dataset, "_parse_lines", side_effect=AssertionError("per-line parser")):
                for parse, source in ((parse_libsvm, text), (load_libsvm, path)):
                    if text in bulk:
                        assert outcome(parse, source) == want
                    else:
                        with pytest.raises(AssertionError, match="per-line parser"):
                            parse(source)

    def test_memory_does_not_grow_beyond_the_output(self, tmp_path):
        # Parsing holds one block's text and tokens beside the output; joining
        # the blocks' arrays copies one output array at a time, and no array
        # is more than half the output.  A whole-file token list costs far
        # more per entry than the 16 bytes the output stores.
        growth = {}
        for n in (4000, 16000):
            path = tmp_path / f"{n}.txt"
            path.write_text("".join(a9a_like_lines(n)))
            tracemalloc.start()
            try:
                d = load_libsvm(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            growth[n] = peak, sum(a.nbytes for a in (d.indptr, d.indices, d.values, d.labels))
        (small, small_out), (large, large_out) = growth[4000], growth[16000]
        assert large - small <= 1.5 * (large_out - small_out) + 100_000

    def test_text_costs_no_more_than_a_file(self, tmp_path):
        # a str source is read a line at a time, as a file is: no copy of the
        # whole text (io.StringIO holds 4 bytes per character) sits beside
        # the output
        text = "".join(a9a_like_lines(8000))
        path = tmp_path / "a9a.txt"
        path.write_text(text)
        peaks = {}
        for name, parse in (("text", lambda: parse_libsvm(text)), ("file", lambda: load_libsvm(path))):
            tracemalloc.start()
            try:
                parse()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["text"] <= peaks["file"] + len(text) // 10

    def test_only_a_newline_ends_a_line_of_text(self):
        # "\r", "\x1c" and "\u2028" separate tokens within a line, as they do
        # for a file reader; str.splitlines would end the line at each
        text = "1 1:1\r2:1\x1c3:1\u20284:1\n-1 1:2"
        d = parse_libsvm(text)
        assert d == parse_libsvm_per_token(text)
        assert d.nnz.tolist() == [4, 1]


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def decimal_tokens(draw):
    """Number tokens of every class: integers, 15 and 16 significant digits,
    points at either end, exponents around 10**+-22 and at the float range's
    ends, and what only float() reads or rejects."""
    sign = draw(st.sampled_from(["", "", "+", "-"]))
    kind = draw(st.sampled_from(["integer", "digits", "decimal", "special"]))
    if kind == "special":
        return draw(st.sampled_from([
            "1_0", "1_000.5", "\u0661\u0662", "\u0661.\u0665", "inf", "-inf", "nan", "Infinity", "+nan",
            "1e400", "-1e400", "4.9e-324", "2.4e-324", "1e-400", "1.7976931348623157e308", "1.8e308",
            "0x10", "1e", ".", "+.", "1.2.3", "--1", "1e+", "e5", "0" * 40 + "1", "1" * 40,
        ]))
    if kind == "integer":
        return sign + "0" * draw(st.integers(0, 3)) + str(draw(st.integers(0, 10**20)))
    if kind == "digits":  # 15 or 16 significant digits, the point anywhere
        digits = str(draw(st.integers(10**14, 10**16 - 1)))
        at = draw(st.integers(0, len(digits)))
        mantissa = digits[:at] + "." + digits[at:]
    else:
        whole = draw(st.sampled_from(["", "0", "1", "12", "007", "9999999"]))
        frac = draw(st.sampled_from([
            "", "5", "25", "000001", "1234567", "0" * 21 + "1", "0" * 22 + "1", "0" * 22 + "15",
        ]))
        mantissa = whole + "." + frac if whole + frac else "1."
    if draw(st.booleans()):
        powers = st.sampled_from([0, 1, 21, 22, 23, -21, -22, -23, -24, 300, 308, 309, -320, -330])
        power = draw(powers | st.integers(-30, 30))
        esign = "-" if power < 0 else draw(st.sampled_from(["", "+"]))
        mantissa += draw(st.sampled_from("eE")) + esign + "0" * draw(st.integers(0, 2)) + str(abs(power))
    return sign + mantissa


class TestNumberConversion:
    """Labels and values hold float(token), bit for bit (so -0 stays -0.0),
    whichever way the token is converted."""

    @settings(max_examples=400, deadline=None)
    @given(token=decimal_tokens())
    @example(token="9007199254740993")  # 2**53 + 1: beyond the exact integers
    @example(token="-0")
    @example(token="1e-22")
    @example(token="+.5e-3")
    def test_token_reads_as_float_reads_it(self, token):
        try:
            want = float(token)
        except ValueError:
            want = math.nan
        text = f"{token} 1:{token}\n"
        if not math.isfinite(want):
            with pytest.raises(ParseError, match="^line 1: (malformed|non-finite) label"):
                parse_libsvm(text)
            return
        d = parse_libsvm(text)
        assert float_bits(d.labels[0]) == float_bits(want)
        assert float_bits(d.values[0]) == float_bits(want)

    @settings(max_examples=100, deadline=None)
    @given(tokens=st.lists(decimal_tokens(), min_size=1, max_size=40))
    def test_a_block_of_tokens_reads_as_float_reads_them(self, tokens):
        wanted = {}
        for token in tokens:
            try:
                wanted[token] = float(token)
            except ValueError:
                pass
        tokens = [t for t, v in wanted.items() if math.isfinite(v)]
        assume(tokens)
        d = parse_libsvm("".join(f"{t} " + " ".join(f"{j}:{t}" for j in range(1, 4)) + "\n" for t in tokens))
        assert [float_bits(v) for v in d.labels] == [float_bits(wanted[t]) for t in tokens]
        assert [float_bits(v) for v in d.values] == [float_bits(wanted[t]) for t in tokens for _ in range(3)]


def dataset_outcome(d):
    return d.dim, d.indptr.tolist(), d.indices.tolist(), d.values.tolist(), d.labels.tolist()


class TestFileReader:
    """`load_libsvm` reads bytes; these outcomes are those of a file opened as
    UTF-8 text (errors="surrogateescape") and read a line at a time."""

    CASES = {
        "crlf": (b"1 1:0.5 3:-2\r\n-1 2:1e-3\r\n", (3, [0, 2, 3], [0, 2, 1], [0.5, -2.0, 0.001], [1.0, -1.0])),
        "crlf_error": (b"1 1:1\r\n-1 2:1\r\nx 1:1\r\n", (ParseError, "line 3: malformed label 'x'")),
        # a lone "\r" ends a line in a file, unlike in a str
        "lone_cr": (b"1 1:1\r2:1\n", (ParseError, "line 2: malformed label '2:1'")),
        "lone_cr_rows": (b"1 1:1\r-1 2:2\r\n+1\r", (2, [0, 1, 2, 2], [0, 1], [1.0, 2.0], [1.0, -1.0, 1.0])),
        "cr_ends_comment": (b"1 1:1 # note\r-1 2:1\n", (2, [0, 1, 2], [0, 1], [1.0, 1.0], [1.0, -1.0])),
        "info_separators": (b"1\x1c1:1\x1d2:2\x1e3:3\x1f4:4\n", (4, [0, 4], [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0], [1.0])),
        # U+0085 and U+2028 separate tokens but end no line
        "nel_and_line_separator": (
            "1 1:1\x852:2\u20283:3\n-1 1:4\n".encode(),
            (3, [0, 3, 4], [0, 1, 2, 0], [1.0, 2.0, 3.0, 4.0], [1.0, -1.0]),
        ),
        "arabic_indic": (
            "\u0661 \u0661:\u0662.\u0665 \u0661\u0660:\u0663\n".encode(), (10, [0, 2], [0, 9], [2.5, 3.0], [1.0])
        ),
        "undecodable": (b"1 1:1\n1 2:1 # \xff\n", (ParseError, "line 2: not UTF-8 text")),
        "truncated_utf8": (b"1 1:1\n-1 1:\xe2\x80\n", (ParseError, "line 2: not UTF-8 text")),
        "nul": (b"1 1:1\n1 2:1\x00\n", (ParseError, "line 2: malformed feature value '1\\x00'")),
        "nul_in_comment": (b"1 1:1 #\x00\n-1 2:1\n", (2, [0, 1, 2], [0, 1], [1.0, 1.0], [1.0, -1.0])),
        "comment": (b"# header\n1 1:1 # 2:5\n\n-1 2:1#x\n", (2, [0, 1, 2], [0, 1], [1.0, 1.0], [1.0, -1.0])),
        "no_final_newline": (b"1 1:1\n-1 2:-0", (2, [0, 1, 2], [0, 1], [1.0, -0.0], [1.0, -1.0])),
    }

    @pytest.mark.parametrize("read_size", [1, 2, 3, 65536])
    @pytest.mark.parametrize("name", list(CASES))
    def test_pinned_outcome(self, tmp_path, name, read_size):
        data, want = self.CASES[name]
        path = tmp_path / "d.txt"
        path.write_bytes(data)
        with mock.patch.object(dataset, "_READ_SIZE", read_size):
            if isinstance(want[0], type):
                with pytest.raises(want[0]) as exc:
                    load_libsvm(path)
                got = (type(exc.value), str(exc.value))
            else:
                got = dataset_outcome(load_libsvm(path))
        assert got == want
        if name == "no_final_newline":
            assert math.copysign(1.0, load_libsvm(path).values[1]) == -1.0

    @pytest.mark.parametrize("read_size", [1, 7, 64])
    def test_a_line_many_reads_long(self, tmp_path, read_size):
        # lines far longer than a read, a lone "\r" and a "\r\n" split by
        # every read size: the pieces are the file, cut only at line ends
        long = "1 " + " ".join(f"{j}:{j % 7 - 3}" for j in range(1, 300))
        data = f"{long}\r-1 2:1\r\n{long} # {long}\n+1 {long[2:]}".encode()
        path = tmp_path / "d.txt"
        path.write_bytes(data)
        with mock.patch.object(dataset, "_READ_SIZE", read_size):
            with open(path, "rb") as fh:
                pieces = list(dataset._file_chunks(fh))
            got = dataset_outcome(load_libsvm(path))
        assert b"".join(pieces) == data
        for piece, following in zip(pieces, pieces[1:]):
            assert piece[-1:] == b"\n" or (piece[-1:] == b"\r" and following[:1] != b"\n")
        with open(path, encoding="utf-8", newline=None) as fh:  # a text-mode file
            assert got == dataset_outcome(parse_libsvm(fh))
        assert len(got[4]) == 4

    def test_only_a_file_ends_a_line_at_a_lone_cr(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"1 1:1\r2:1\n")
        assert dataset_outcome(parse_libsvm("1 1:1\r2:1\n")) == (2, [0, 2], [0, 1], [1.0, 1.0], [1.0])
        with open(path, encoding="utf-8", newline=None) as fh:  # a text-mode file, one item per line
            with pytest.raises(ParseError, match="^line 2: malformed label '2:1'$"):
                parse_libsvm(fh)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def random_datasets(draw):
    """Random CSR content: empty rows, spare columns past the largest index
    (a dim override on parse) and finite values of any magnitude."""
    dim = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        idx = sorted(draw(st.sets(st.integers(1, dim), max_size=8)))
        vals = draw(st.lists(finite, min_size=len(idx), max_size=len(idx)))
        rows.append((idx, vals, draw(finite)))
    return rows_dataset(rows, dim)


def seeded_datasets(seed, trials):
    """`trials` seeded random datasets stacked into one, the fixed round-trip case."""
    rng = np.random.default_rng(seed)
    rows, dims = [], []
    for _ in range(trials):
        n = int(rng.integers(1, 30))
        dim = int(rng.integers(1, 40))
        dims.append(dim)
        for _ in range(n):
            k = int(rng.integers(0, min(dim, 8) + 1))
            idx = tuple(int(i) for i in np.sort(rng.choice(dim, size=k, replace=False)) + 1)
            vals = tuple(float(v) for v in rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8))
            rows.append((idx, vals, float(rng.standard_normal())))
    return rows_dataset(rows, max(dims))


class TestRoundTrip:
    def test_simple_round_trip(self):
        text = "1 1:0.5 3:-2\n-1\n3 2:1e-09\n"
        d1 = parse_libsvm(text)
        d2 = parse_libsvm(serialize_libsvm(d1))
        assert d1 == d2

    @settings(max_examples=60, deadline=None)
    @given(d=random_datasets())
    @example(d=seeded_datasets(42, 20))
    def test_random_round_trip_exact(self, d):
        assert parse_libsvm(serialize_libsvm(d), dim=d.dim) == d

    def test_serializer_uses_full_precision(self):
        v = 0.1 + 0.2  # not representable in few digits
        d = rows_dataset([((1,), (v,), 1.0)], 1)
        text = serialize_libsvm(d)
        assert float(text.split(":")[1]) == v


class TestBinarize:
    def test_four_classes_split_in_half(self):
        assert binarize_labels([0, 1, 2, 3]) == [1.0, 1.0, -1.0, -1.0]

    def test_three_classes_majority_positive(self):
        assert binarize_labels([1, 2, 3]) == [1.0, 1.0, -1.0]

    def test_already_binary_passthrough(self):
        assert binarize_labels([-1, 1, 1, -1]) == [-1.0, 1.0, 1.0, -1.0]

    def test_zero_one_uses_sorted_rule(self):
        assert binarize_labels([0, 1, 0]) == [1.0, -1.0, 1.0]

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            binarize_labels([2, 2, 2])

    @settings(max_examples=80, deadline=None)
    @given(
        labels=st.lists(st.sampled_from([-1.0, 1.0, 0.0, -0.0, 2.0, 3.5, -7.0, 1e300]), max_size=12),
        as_array=st.booleans(),
    )
    def test_matches_the_rule_on_np_unique(self, labels, as_array):
        # the rule applied to np.unique's distinct labels is the oracle, bit
        # for bit, for lists and arrays, and for no or one class (an error)
        raw = np.array(labels, dtype=np.float64)
        distinct = np.unique(raw)
        source = raw if as_array else labels
        if distinct.size < 2:
            with pytest.raises(DataError, match=re.escape(f"got {distinct.tolist()}")):
                binarize_labels(source)
            return
        if distinct.tolist() == [-1.0, 1.0]:
            want = raw.tolist()
        else:
            want = np.where(raw <= distinct[math.ceil(distinct.size / 2) - 1], 1.0, -1.0).tolist()
        assert np.array(binarize_labels(source)).tobytes() == np.array(want).tobytes()

    def test_binarize_dataset_keeps_features(self):
        d = parse_libsvm("3 1:1\n5 2:1\n7 1:2\n")
        b = binarize(d)
        assert b.labels.tolist() == [1.0, 1.0, -1.0]
        assert features(b, 2) == features(d, 2)


class TestSplit:
    def _data(self, n):
        return parse_libsvm("\n".join(f"{(-1) ** i} 1:{i + 1}" for i in range(n)) + "\n")

    def test_sizes(self):
        train, held = split_positions(10, 0.8, seed=0)
        assert train.size == 8
        assert held.size == 2

    def test_a9a_sized_split(self):
        # floor(0.8 * 32561) = 26048
        import math

        assert math.floor(0.8 * 32561) == 26048

    def test_partition_is_exact(self):
        # sorted positions, so the rows keep their order in the data
        d = self._data(23)
        train, held = split_positions(d.n, 0.6, seed=5)
        assert (np.diff(train) > 0).all() and (np.diff(held) > 0).all()
        merged = sorted(
            [features(d.take(train), i)[1][0] for i in range(train.size)]
            + [features(d.take(held), i)[1][0] for i in range(held.size)]
        )
        assert merged == [features(d, i)[1][0] for i in range(d.n)]

    def test_deterministic(self):
        a = split_positions(40, 0.8, seed=9)
        b = split_positions(40, 0.8, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = split_positions(40, 0.8, seed=10)
        assert not np.array_equal(c[0], a[0])

    @pytest.mark.parametrize("fraction", [0.01, 0.3])
    def test_degenerate_split_rejected(self, fraction):
        # floor(fraction * 3) = 0 train examples in both cases
        with pytest.raises(DataError):
            split_positions(3, fraction, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(DataError):
            split_positions(10, fraction, seed=0)


class TestNeighbor:
    """A neighbor is the train positions with one of them replaced."""

    def test_replaces_exactly_one(self):
        d = stack([parse_libsvm("1 1:1\n-1 2:1\n1 3:1\n"), rows_dataset([((1, 2), (9.0, 9.0), -1.0)], 3)], 3)
        nb = d.take([0, 3, 2])
        assert nb.take([0]) == d.take([0])
        assert nb.take([2]) == d.take([2])
        assert features(nb, 1)[1] == (9.0, 9.0)
        assert features(d, 1)[1] == (1.0,)  # original untouched

    def test_identity_replacement(self):
        d = parse_libsvm("1 1:1\n-1 2:1\n")
        assert d.take([0, 1]) == d

    @pytest.mark.parametrize("index", [0, 4, -1])
    def test_bad_index(self, index):
        # the kernel names the replaced train row by its 1-based position
        d = parse_libsvm("1 1:1\n-1 2:1\n1 1:2\n")
        hp = HyperParams(beta=0.5, gamma=0.0, eta=0.1, iterations=2)
        with pytest.raises(ValueError, match="neighbor index out of range 1..3"):
            coupled_distance_batch(
                d, np.arange(3)[None, :], [index], [0], [SampleStream(0, 3)], "logistic", [hp], np.zeros(2), 1
            )


class TestSparseVectorInvariants:
    """Row invariants, enforced on every Dataset and, with line numbers, by the parser."""

    def test_indices_must_increase(self):
        with pytest.raises(DataError):
            rows_dataset([((2, 2), (1.0, 1.0), 1.0)], 3)
        with pytest.raises(ParseError, match="line 1: .*increasing"):
            parse_libsvm("1 2:1 2:1\n")

    def test_index_within_dim(self):
        with pytest.raises(DataError):
            rows_dataset([((4,), (1.0,), 1.0)], 3)
        with pytest.raises(DataError):
            parse_libsvm("1 4:1\n", dim=3)

    def test_index_at_least_one(self):
        with pytest.raises(DataError):
            Dataset([0, 1], [-1], [1.0], [1.0], 3)
        with pytest.raises(ParseError, match="line 1: .*index"):
            parse_libsvm("1 0:1\n")

    def test_values_must_be_finite(self):
        with pytest.raises(DataError):
            rows_dataset([((1,), (float("inf"),), 1.0)], 3)
        with pytest.raises(DataError):
            rows_dataset([((1,), (1.0,), float("nan"))], 3)
        with pytest.raises(ParseError, match="line 2: non-finite"):
            parse_libsvm("1 1:1\n1 1:nan\n")

    @pytest.mark.parametrize(
        "indptr,labels", [([0, 2], [1.0]), ([1, 1], [1.0]), ([0, 1], [1.0, 2.0]), ([0], [])]
    )
    def test_indptr_must_match_entries_and_labels(self, indptr, labels):
        with pytest.raises(DataError):
            Dataset(indptr, [0], [1.0], labels, 3)

    def test_increasing_check_spans_rows_only(self):
        # a row may start below where the previous one ended
        d = rows_dataset([((2, 3), (1.0, 1.0), 1.0), ((), (), 1.0), ((1, 3), (1.0, 1.0), -1.0)], 3)
        assert d.nnz.tolist() == [2, 0, 2]

    def test_arrays_are_read_only_views(self):
        values = np.array([1.0, 2.0])
        d = Dataset([0, 1, 2], [0, 1], values, [1.0, -1.0], 2)
        with pytest.raises(ValueError):
            d.values[0] = 5.0
        values[0] = 3.0  # the caller's array stays writable
        assert d.values[0] == 3.0

    def test_matrix_matches_entries(self):
        d = parse_libsvm("1 1:2 3:4\n-1 2:-1\n")
        dense = csr_matrix(d).toarray()
        np.testing.assert_allclose(dense, [[2, 0, 4], [0, -1, 0]])


class TestSynthetic:
    def test_shapes_and_labels(self):
        d = synthetic_binary_dataset(50, 7, seed=1)
        assert d.n == 50
        assert d.dim == 7
        assert set(d.labels) == {-1.0, 1.0}

    def test_deterministic(self):
        assert synthetic_binary_dataset(20, 5, seed=3) == synthetic_binary_dataset(20, 5, seed=3)

    @pytest.mark.parametrize(
        "n, dim, density, fits", [(10, 100_000_000, 0.5, False), (1000, 20, 0.5, True), (10**8, 1, 0.0, False)]
    )
    def test_refused_before_the_first_draw_beyond_the_available_memory(self, n, dim, density, fits, monkeypatch):
        # 16 bytes per expected entry, at least one per row, and 24 * dim for
        # a row's draw, against 1 GiB said to be available; the generator is
        # never seeded on a refusal, so nothing is drawn at the refused size
        monkeypatch.setattr(dataset, "available_memory", lambda: 2**30)
        if fits:
            assert synthetic_binary_dataset(n, dim, seed=0, density=density).n == n
            return
        monkeypatch.setattr(dataset.np.random, "default_rng", mock.Mock(side_effect=AssertionError("drew")))
        estimate = 16 * n * max(1.0, density * dim) + 24 * dim
        message = (
            rf"synth_n = {n} rows by synth_dim = {dim} features at density {density:g} needs"
            rf" about {estimate / 2**20:.0f} MiB, more than the 1024 MiB available"
        )
        with pytest.raises(DataError, match=message):
            synthetic_binary_dataset(n, dim, seed=0, density=density)

    def test_the_available_memory_is_read(self):
        available = dataset.available_memory()
        if available is None:
            pytest.skip("neither /proc/meminfo nor the cgroup's memory files can be read")
        assert available > 0


class TestRowOperations:
    """take, neighbors, the tests' stack, padded and norm_sq against per-row reads."""

    @settings(max_examples=40, deadline=None)
    @given(d=random_datasets(), data=st.data())
    def test_take_reads_the_chosen_rows(self, d, data):
        positions = data.draw(st.lists(st.integers(0, d.n - 1), min_size=1, max_size=10))
        taken = d.take(positions)
        assert taken.dim == d.dim
        for k, i in enumerate(positions):
            assert features(taken, k) == features(d, i)
            assert taken.labels[k] == d.labels[i]

    @settings(max_examples=40, deadline=None)
    @given(d=random_datasets(), pool=random_datasets(), data=st.data())
    def test_neighbor_replaces_one_row(self, d, pool, data):
        index = data.draw(st.integers(1, d.n))
        row = data.draw(st.integers(0, pool.n - 1))
        both = stack([d, pool], max(d.dim, pool.dim))
        rows = np.arange(d.n)
        rows[index - 1] = d.n + row
        nb = both.take(rows)
        assert nb.n == d.n
        for i in range(d.n):
            src, j = (pool, row) if i == index - 1 else (d, i)
            assert features(nb, i) == features(src, j)
            assert nb.labels[i] == src.labels[j]

    @settings(max_examples=40, deadline=None)
    @given(a=random_datasets(), b=random_datasets())
    def test_stack_then_take_gives_the_parts_back(self, a, b):
        dim = max(a.dim, b.dim)
        both = stack([a, b], dim)
        assert both.take(range(a.n)) == stack([a], dim)
        assert both.take(range(a.n, a.n + b.n)) == stack([b], dim)

    @settings(max_examples=40, deadline=None)
    @given(d=random_datasets())
    def test_padded_and_norms_match_rows(self, d):
        indices, values = d.padded
        assert indices.shape == values.shape == (d.n, max(int(d.nnz.max()), 1))
        dense = csr_matrix(d).toarray()
        for i in range(d.n):
            idx, vals, _ = d.row(i)
            k = idx.size
            assert indices[i, :k].tolist() == idx.tolist()
            assert values[i, :k].tolist() == vals.tolist()
            assert (indices[i, k:] == d.dim).all() and (values[i, k:] == 0.0).all()
            assert dense[i, idx].tolist() == vals.tolist()
            with np.errstate(over="ignore"):
                np.testing.assert_allclose(d.norm_sq[i], float(vals @ vals), rtol=1e-14)

    def test_take_rejects_positions_out_of_range(self):
        d = parse_libsvm("1 1:1\n-1 2:1\n")
        for bad in ([2], [-1]):
            with pytest.raises(DataError):
                d.take(bad)
