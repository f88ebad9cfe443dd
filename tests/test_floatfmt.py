"""The float-list kernel against ``float.__repr__``, and its place in ``dump_report``."""

import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import _floatfmt, stateio
from sepkit.cli import main

SEP = ",\n    "


def assert_reprs(values):
    """The kernel's text of ``values`` is ``float.__repr__``'s, value by value."""
    values = [float(v) for v in values]
    got = _floatfmt.repr_join(values, SEP).split(SEP)
    want = [float.__repr__(v) for v in values]
    assert len(got) == len(want)
    bad = [(v, g) for v, g, w in zip(values, got, want) if g != w]
    assert not bad, f"{len(bad)} differ, e.g. {bad[:5]}"


def assert_same_text(got: str, want: str):
    """``got == want``; a mismatch fails at once, naming the first differing offset.

    pytest's own diff of two long strings is slow enough to stall a
    hypothesis test for minutes while it shrinks, so it is never asked for.
    """
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(
            f"texts of {len(got)} and {len(want)} chars differ from offset {at}: "
            f"{got[window]!r} != {want[window]!r}",
            pytrace=False,
        )


def finite(x: np.ndarray) -> np.ndarray:
    return x[np.isfinite(x)]


DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]
).filter(math.isfinite)


@settings(max_examples=150)
@given(x=DOUBLES, others=st.lists(DOUBLES, max_size=12))
def test_kernel_matches_repr_on_any_double(x, others):
    assert _floatfmt.repr_join([x], SEP) == repr(x)
    # the same values in a list long enough for dump_report to use the kernel
    long = ([x] + others) * (stateio._KERNEL_MIN // (1 + len(others)) + 1)
    assert len(long) >= stateio._KERNEL_MIN
    assert_reprs(long)
    want = json.dumps({"v": long}, indent=2) + "\n"
    assert_same_text(stateio.dump_report({"v": np.array(long)}), want)


def test_kernel_matches_repr_on_edge_values():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    # exponent form iff the decimal point position is <= -4 or > 16
    switches = np.array([1e-4, 1e-5, 1e16, 1e17, 9999999999999998.0])
    near = np.concatenate([powers, switches])
    near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    edges = np.concatenate([
        near,
        np.arange(1, 100_001, dtype=np.uint64).view(np.float64),  # the first subnormals
        [0.0, 5e-324, sys.float_info.max, sys.float_info.min, 0.1, 1 / 3],
        np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.int64).astype(np.float64),
        np.arange(0, 100_001, dtype=np.float64),
    ])
    edges = finite(edges)
    assert_reprs(np.concatenate([edges, -edges]))


def test_kernel_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2**64 - 1, 10**6, dtype=np.uint64, endpoint=True)
    assert_reprs(finite(bits.view(np.float64)))


def test_layout_switches_between_chunks():
    """Each chunk picks its own columns: the first needs no prefix, two digit
    words and no exponent; the second a sign, ``0.000``, three digit words
    and both exponent signs, and its first value alone three digit words."""
    first = np.resize([0.5, 3.0], _floatfmt.CHUNK)
    second = [1.2345678901234567, -0.000123, 0.00045, -2.5, 1e16, -2.5e-07, 1.7976931348623157e308]
    values = np.concatenate([first, second])
    for x in (values, values[:_floatfmt.CHUNK + 1]):
        assert_same_text(_floatfmt.repr_join(x, SEP), SEP.join(map(repr, x.tolist())))


def test_non_finite_value_in_a_long_report_list_exits_2(capsys, monkeypatch):
    weights_dict = stateio.weights_dict

    def with_nan(w):
        doc = weights_dict(w)
        doc["lambdas"] = doc["lambdas"].tolist() * stateio._KERNEL_MIN + [math.nan]
        return doc

    monkeypatch.setattr(stateio, "weights_dict", with_nan)
    path = Path(__file__).resolve().parent.parent / "cli_examples" / "states" / "werner3_x030.json"
    code = main(["classify", "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "not JSON compliant" in err
