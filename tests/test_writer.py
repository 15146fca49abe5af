"""The row writer against Python's own '%.17g' and '%d', value by value."""

import io
import struct
import tracemalloc

import numpy as np
import pytest

from resonance_atlas import cli


def _ulp_neighbours(x: float, count: int) -> list[float]:
    """x and the count doubles on either side of it."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return [struct.unpack("<d", struct.pack("<q", bits + d))[0] for d in range(-count, count + 1)]


def _float_cases():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    specials = [np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                1.7976931348623157e308]
    uniform = rng.uniform(-1.0, 1.0, size=100_000)
    powers = [v for e in range(-8, 3) for s in (1.0, -1.0)
              for v in _ulp_neighbours(s * 10.0**e, 64)]
    # '%g' writes 1e-4 in fixed form and 1e-5 in exponent form
    switch = [v for x in (1e-4, 9.99995e-5, 1e-5, 9.99995e-6) for s in (1.0, -1.0)
              for v in _ulp_neighbours(s * x, 8)]
    edges = [0.0, -0.0, 0.99999999999999999, -0.99999999999999999, 0.099999999999999999,
             9.9999999999999999e-7, 1e-6, 1e-7, 9.9999999999999982, 10.0, 1e-300]
    # exact half-way cases: j / 2**(17 - k) * 10**(16 - k) = j 5**(16 - k) / 2
    # with j odd, for every k the kernel formats and one on either side
    ties = []
    for k in range(cli._K_MIN - 2, cli._K_MAX + 2):
        scale = 2.0 ** (17 - k)
        lo, hi = int(np.ceil(10.0**k * scale)), int(10.0 ** (k + 1) * scale)
        j = rng.integers(lo, hi, size=4_000) | 1
        ties += [s * float(v) / scale for v in j[j < hi] for s in (1.0, -1.0)]
    return {
        "bit patterns": np.concatenate([bits, specials]),
        "uniform": np.concatenate([uniform, uniform[:1000] * 1e-6]),
        "powers of ten": np.array(powers + switch),
        "zeros and carries": np.array(edges),
        "ties": np.array(ties),
    }


def _written(column: np.ndarray) -> bytes:
    buf = io.BytesIO()
    cli.write_rows(buf, [column, b"\n"])
    return buf.getvalue()


@pytest.fixture
def spliced(monkeypatch):
    """The number of values each _splice call hands to Python's own %, and
    the number it was given in all."""
    counts = []

    def record(slots, values, ok, fmt):
        counts.append((int(np.count_nonzero(~ok)), len(values)))
        original(slots, values, ok, fmt)

    original = cli._splice
    monkeypatch.setattr(cli, "_splice", record)
    return counts


@pytest.mark.parametrize("case", list(_float_cases()))
def test_float_kernel_matches_percent_format(case, spliced):
    x = _float_cases()[case]
    got = _written(x).split(b"\n")[:-1]
    want = [b"%.17g" % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad[:5] and len(got) == len(want)
    # both the digit kernel and the fallback wrote some of the values
    fallback = sum(k for k, _ in spliced)
    assert sum(m for _, m in spliced) == len(x)
    assert 0 < fallback < len(x)


def test_kernel_range_takes_no_fallback(spliced):
    """Every value with a decimal exponent in the kernel's range is written
    from its digits, and 1e-6 is just below that range."""
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=20_000) * 10.0 ** rng.integers(cli._K_MIN, cli._K_MAX + 1, 20_000)
    x = x[np.abs(x) >= 1.0000000000000001e-6]
    assert _written(x) == b"".join(b"%.17g\n" % v for v in x.tolist())
    assert sum(k for k, _ in spliced) == 0
    assert _written(np.array([1e-6])) == b"9.9999999999999995e-07\n"


def _int_cases():
    rng = np.random.default_rng(20261019)
    boundary = [10**8 - 1, 10**8, 10**8 + 1, -1, -(2**63), 2**63 - 1]
    return {
        "0..200000": np.concatenate([np.arange(200_001), boundary]),
        "below 1e8": np.concatenate([rng.integers(0, 10**8, size=50_000), boundary]),
        "1e8 boundary": np.array(list(range(10**8 - 1000, 10**8 + 1000)) + boundary),
    }


@pytest.mark.parametrize("case", list(_int_cases()))
def test_int_kernel_matches_percent_format(case, spliced):
    i = _int_cases()[case].astype(np.int64)
    assert _written(i) == b"".join(b"%d\n" % v for v in i.tolist())
    fallback = sum(k for k, _ in spliced)
    assert 0 < fallback < len(i)


def test_small_ints_take_two_words(monkeypatch):
    """A column of integers of at most 8 digits gets two-word slots."""
    sizes = []
    original = cli._int_slots
    monkeypatch.setattr(cli, "_int_slots", lambda i, size: sizes.append(size) or original(i, size))
    assert _written(np.array([0, 7, 10**8 - 1])) == b"0\n7\n99999999\n"
    assert _written(np.array([0, 10**8])) == b"0\n100000000\n"
    assert sizes == [2, cli._INT_WORDS]


def test_index_words_match_percent_format():
    """An index word is b"%d" % i and its separator, left-aligned and
    NUL-padded to 8 bytes, at every digit-count boundary up to the limit."""
    i = np.array([0, *(v for k in range(1, 7) for v in (10**k - 1, 10**k)),
                  cli._INDEX_LIMIT - 1])
    for words, fmt in zip(cli._index_words(i, b" \n"), (b"%d ", b"%d\n")):
        assert words.dtype == np.dtype("<u8")
        assert words.tobytes() == b"".join((fmt % v).ljust(8, b"\0") for v in i.tolist())


def test_rows_mix_literals_floats_ints_and_text():
    buf = io.BytesIO()
    cli.write_rows(buf, [b"row ", np.array([3, 10**9]), b",", np.array([0.5, -2e-9]),
                         b",", np.array([b"S1", b"false"]), b"\n"])
    assert buf.getvalue() == b"row 3,0.5,S1\nrow 1000000000,-2.0000000000000001e-09,false\n"


def test_blocks_join_seamlessly(monkeypatch):
    """Rows split over blocks of a few rows give the same bytes."""
    x = np.linspace(-1.0, 1.0, 11)
    whole = _written(x)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    assert _written(x) == whole == b"".join(b"%.17g\n" % v for v in x.tolist())


def test_tables_are_built_on_first_use(capsys):
    """classify never builds the digit tables."""
    cli._digit_words.cache_clear()
    cli._float_heads.cache_clear()
    assert cli.main(["classify", "--json", "0.3", "0.2", "0.5", "0.1"]) == 0
    assert cli._digit_words.cache_info().currsize == 0
    assert cli._float_heads.cache_info().currsize == 0


def test_whole_word_text_columns_are_read_in_place():
    """A contiguous 'S' column whose item size is whole words is read where
    it lies: writing 100,000 'S28' rows allocates a few blocks, not a copy of
    the column (2.8 MB).  Strided and padded columns give the same text."""
    class Sink:
        def __init__(self):
            self.parts = []

        def write(self, b):
            self.parts.append(len(b))

    col = np.array([b"%027d," % i for i in range(100_000)], dtype="S28")
    tracemalloc.start()
    try:
        cli.write_rows(Sink(), [col, b"\n"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < col.nbytes / 4
    for c in (col[:300], col[:300:2], col[:300].astype("S30"), col[:300].astype("S27")):
        buf = io.BytesIO()
        cli.write_rows(buf, [b"t ", c, b"\n"])
        assert buf.getvalue() == b"".join(b"t %s\n" % x for x in c.tolist())
