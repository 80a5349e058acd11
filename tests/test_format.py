"""The profile CSV kernel against Python's own '%.17g'."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe import _format, cli
from yamabe.geometry import RadialProfile

from oracles import write_profile_by_rows


def _lines(values):
    """The kernel's rows (values[i], values[-1 - i]): the first column
    through `cells`, the second through `csv_rows` itself."""
    values = np.asarray(values, dtype=float)
    text = b"".join(bytes(chunk) for chunk in _format.csv_rows(_format.cells(values), values[None, ::-1]))
    return text.decode("ascii").split("\n")[:-1]


def _mismatches(values):
    values = np.asarray(values, dtype=float).ravel()
    words = list(map("%.17g".__mod__, values.tolist()))
    expected = list(map(",".join, zip(words, reversed(words))))
    got = _lines(values)
    assert len(got) == len(expected)
    return [(float(v), g, e) for v, g, e in zip(values, got, expected) if g != e]


def _exact_ties(rng, count):
    """Doubles x with |x| 10^k exactly halfway between two integers of 17
    digits: x = M / 2^(k+1) for odd M with 5^k M between 2e16 and 2e17."""
    out = []
    for k in range(1, 24):
        lo, hi = -(-2 * 10 ** 16 // 5 ** k), min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        m = rng.integers(lo // 2, hi // 2, size=count // 23) * 2 + 1
        out.append(np.ldexp(m.astype(float), -(k + 1)))
    return np.concatenate(out)


def _eighteenth_digit_five(rng, count):
    """Values parsed from decimals whose 18th significant digit is 5."""
    mantissas = rng.integers(10 ** 16, 10 ** 17, size=count)
    tails = rng.integers(0, 10 ** 6, size=count)
    exponents = rng.integers(-330, 280, size=count)     # the values stay finite
    return np.array([float(f"{m}5{t}e{x}") for m, t, x in zip(mantissas.tolist(), tails.tolist(),
                                                              exponents.tolist())])


def _corpus():
    rng = np.random.default_rng(20)
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = [np.nextafter(v, toward) for v in (switches, tens) for toward in (0.0, np.inf)]
    signed = {
        "powers_of_ten": np.concatenate([tens, *near[2:]]),
        "subnormals": rng.integers(1, 2 ** 52, size=25_000, dtype=np.uint64).view(np.float64),
        "switch_points": np.concatenate([switches, *near[:2]]),
        "exact_ties": _exact_ties(rng, 23_000),
        "eighteenth_digit_five": _eighteenth_digit_five(rng, 40_000),
    }
    return {
        "bit_patterns": rng.integers(0, 2 ** 64, size=500_000, dtype=np.uint64).view(np.float64),
        "scaled_normals": rng.standard_normal(300_000) * np.exp(rng.uniform(-60, 60, 300_000)),
        "integers": np.concatenate([rng.integers(-2 ** 53, 2 ** 53, size=100_000, endpoint=True),
                                    np.arange(-1000, 1001), [2 ** 53, -2 ** 53]]).astype(float),
        "specials": np.array([0.0, -0.0, math.inf, -math.inf, math.nan]),
        **{name: np.concatenate([v, -v]) for name, v in signed.items()},
    }


CORPUS = _corpus()


def test_corpus_size():
    assert sum(v.size for v in CORPUS.values()) >= 10 ** 6


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_matches_python(name):
    assert _mismatches(CORPUS[name]) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float_matches_python(values):
    assert _mismatches(values) == []


def test_exact_ties_are_ties():
    """Each value of the tie corpus times 10^k, k = 16 - e, is an odd
    multiple of one half: the rounding decision itself, which `'%.17g'`
    settles to even and the kernel leaves to it."""
    for x in CORPUS["exact_ties"][::997].tolist():
        scaled = Fraction(abs(x)) * Fraction(10) ** (16 - math.floor(math.log10(abs(x))))
        assert scaled.denominator == 2 and 10 ** 16 <= scaled < 10 ** 17


def test_chunks_join_into_one_text(monkeypatch):
    values = CORPUS["scaled_normals"][:5000]
    whole = b"".join(bytes(c) for c in _format.csv_rows(_format.cells(values), values[None]))
    monkeypatch.setattr(_format, "_CHUNK_ROWS", 7)
    parts = b"".join(bytes(c) for c in _format.csv_rows(_format.cells(values), values[None]))
    assert whole == parts


def test_written_profile_equals_the_row_oracle(tmp_path):
    """A 4001-node profile as the solve and example1 writers write it,
    against a plain per-row writer."""
    rng = np.random.default_rng(4001)
    profile = RadialProfile.uniform(1.3, 4001, lambda x: 0.3 * np.cosh(x) - 0.1)
    residual = rng.standard_normal(4001) * 10.0 ** rng.uniform(-14, -6, 4001)
    residual[[0, -1]] = 0.0
    resolved = {"command": "solve", "grid_size": 4001}
    comments = ["# t 0.25"]
    cli._write_profile_csv(tmp_path / "kernel.csv", resolved, profile, residual, comments)
    columns = (profile.grid, profile.u, profile.du, profile.d2u, residual)
    write_profile_by_rows(tmp_path / "oracle.csv", resolved, comments, columns)
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
