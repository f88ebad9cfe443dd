"""State-file parsing and report serialization for the command line.

A state file is a JSON document with ``n_qubits`` and exactly one of:

* ``weights``: ``{"lambda0_plus": x, "lambda0_minus": y, "lambdas": [...]}``
  where each number may also be a rational string like ``"1/5"`` (parsed to
  the nearest double, noted in the report). Without an explicit ``delta``,
  delta is the exact difference lambda0_plus - lambda0_minus rounded once,
  so exact rational ties delta == 2 * lambda_j read as ties;
* ``matrix``: ``{"re": [[...]], "im": [[...]]}`` of JSON numbers (booleans
  and strings are rejected), row-major with qubit 0 as the most
  significant index bit. Matrices must be Hermitian, positive semidefinite
  and of unit trace within ``tensor.DENSITY_ATOL``.

Reports are JSON objects with a fixed key order, a ``tool_version`` field,
and newline-terminated output: the text of ``json.dumps(report, indent=2,
ensure_ascii=False, allow_nan=False)``, so NaN and infinities, which are not
JSON, raise ValueError. By default floats are emitted with the shortest
representation that round-trips exactly; ``precision`` below 17 rounds to
that many significant digits first.

A report may hold numpy arrays, emitted as their ``tolist()``; the pair
weights stay ``GhzWeights``' read-only float64 array up to the text.
json.dumps writes all of a report but its 1-d numeric arrays, each of which
is one call of the C JSON encoder, or, for a float64 vector of at least
``_KERNEL_MIN`` values, of ``_floatfmt``: whole-array numpy code whose
output is pinned to ``float.__repr__`` by tests.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain

import numpy as np

from . import tensor
from .family import GhzWeights, _project


class StateFileError(ValueError):
    """Malformed or invalid input state file."""


@dataclass
class StateInput:
    weights: GhzWeights
    depolarized: bool
    notes: tuple[str, ...]


def qubit_label(q: int) -> str:
    if q >= len(string.ascii_uppercase):
        raise ValueError(f"qubit index {q} has no letter label")
    return string.ascii_uppercase[q]


def parse_qubit(token: str, n: int) -> int:
    """Accept either an ASCII letter (A, B, ...) or a 0-based index in ASCII digits."""
    token = token.strip()
    # str.isdigit and str.upper also accept other scripts: "٢", "³", "ı"
    if token.isascii() and token.isdigit():
        q = int(token)
    elif token.isascii() and len(token) == 1 and token.upper() in string.ascii_uppercase:
        q = string.ascii_uppercase.index(token.upper())
    else:
        raise StateFileError(f"--pair takes a letter A-Z or a 0-based index, got {token!r}")
    if not 0 <= q < n:
        raise StateFileError(f"qubit {token!r} out of range for {n} qubits")
    return q


def _name(field: str | int) -> str:
    return field if isinstance(field, str) else f"lambdas[{field}]"


def _number(value, field: str | int, notes: list[str]) -> float:
    """``value`` as a finite double. An int ``field`` i stands for ``lambdas[i]``,
    so the per-entry loop formats a name only for a diagnostic or a note."""
    if isinstance(value, bool):
        raise StateFileError(f"{_name(field)} must be a number")
    if isinstance(value, (int, float)):
        exact = value
    elif isinstance(value, str):
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise StateFileError(f"{_name(field)}: cannot parse rational {value!r}") from exc
        notes.append(f"{_name(field)} parsed from rational {value} to nearest double")
    else:
        raise StateFileError(f"{_name(field)} must be a number or rational string")
    try:
        number = float(exact)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise StateFileError(f"{_name(field)} must be a finite number, got {value!r}")
    return number


def _lambdas(raw: list, notes: list[str]):
    """The pair weights as doubles, in one numpy pass when all are ints and floats.

    Anything else (a bool, a rational string, an int too large for a double,
    a non-finite value) takes the per-entry path, which names the first bad
    index and notes each rational string.
    """
    if set(map(type, raw)) <= {int, float}:
        try:
            lams = np.array(raw, dtype=float)  # each entry as float(v)
        except OverflowError:
            pass
        else:
            if np.isfinite(lams).all():
                return lams
    return tuple(_number(v, i, notes) for i, v in enumerate(raw))


def _parse_weights(n: int, raw: dict, notes: list[str]) -> GhzWeights:
    if not isinstance(raw, dict):
        raise StateFileError("weights must be an object")
    for key in ("lambda0_plus", "lambda0_minus", "lambdas"):
        if key not in raw:
            raise StateFileError(f"weights missing field {key!r}")
    lams_raw = raw["lambdas"]
    if not isinstance(lams_raw, list):
        raise StateFileError("weights.lambdas must be an array")
    lams = _lambdas(lams_raw, notes)
    # optional: an explicit delta (reports emit it so boundary cases round-trip
    # exactly) and the canonicalization flag
    delta = raw.get("delta")
    if delta is not None:
        delta = _number(delta, "delta", notes)
    flipped = raw.get("basis_flipped", False)
    if not isinstance(flipped, bool):
        raise StateFileError("weights.basis_flipped must be a boolean")
    try:
        plus = _number(raw["lambda0_plus"], "lambda0_plus", notes)
        minus = _number(raw["lambda0_minus"], "lambda0_minus", notes)
        exact_plus, exact_minus = Fraction(raw["lambda0_plus"]), Fraction(raw["lambda0_minus"])
        if delta is None and 0 <= exact_minus <= exact_plus:
            # one rounding of the exact difference, so a rational tie
            # delta == 2 * lambda_j stays a tie between the doubles
            delta = float(exact_plus - exact_minus)
        return GhzWeights(
            n_qubits=n,
            lambda0_plus=plus,
            lambda0_minus=minus,
            lambdas=lams,
            basis_flipped=flipped,
            delta=delta,
        )
    except ValueError as exc:
        raise StateFileError(f"invalid weights: {exc}") from exc


def _parse_matrix(n: int, raw: dict, notes: list[str]) -> GhzWeights:
    if not isinstance(raw, dict) or "re" not in raw:
        raise StateFileError("matrix must be an object with fields re (and im)")
    try:
        re = np.asarray(raw["re"], dtype=float)
        im = np.asarray(raw.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(f"matrix entries are not numeric: {exc}") from exc
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise StateFileError("matrix entries must be finite numbers")
    if re.ndim != 2 or re.shape != im.shape or re.shape[0] != re.shape[1]:
        raise StateFileError("matrix re/im must be equal-shape square 2-d arrays")
    # 2**n has bit length n + 1; compared first, n never sizes a shift
    if re.shape[0].bit_length() != n + 1 or re.shape[0] != 1 << n:
        raise StateFileError(
            f"matrix dimension {re.shape[0]} does not match n_qubits={n}"
        )
    for key in ("re", "im"):
        # np.asarray turns booleans and numeric strings into floats unasked
        if not set(map(type, chain.from_iterable(raw.get(key, ())))) <= {int, float}:
            raise StateFileError(f"matrix.{key} entries must be numbers, not booleans or strings")
    rho = re + 1j * im
    try:
        tensor.check_density(rho)
    except ValueError as exc:
        raise StateFileError(f"invalid density matrix: {exc}") from exc
    tr = float(rho.trace().real)
    if tr != 1.0:
        rho = rho / tr
        notes.append(f"matrix trace {tr!r} renormalized to 1")
    try:
        return _project(rho, n)
    except ValueError as exc:  # a weight negative beyond GhzWeights' clamp
        raise StateFileError(str(exc)) from exc


def load_state(path: str) -> StateInput:
    """The state in ``path`` as family weights: a matrix is checked, then projected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, integer-digit limit
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("state file must be a JSON object")
    if "n_qubits" not in doc:
        raise StateFileError("state file missing n_qubits")
    n = doc["n_qubits"]
    if not isinstance(n, int) or n < 2:
        raise StateFileError(f"n_qubits must be an integer >= 2, got {n!r}")
    if ("weights" in doc) == ("matrix" in doc):
        raise StateFileError("state file must carry exactly one of weights/matrix")
    notes: list[str] = []
    if "weights" in doc:
        return StateInput(_parse_weights(n, doc["weights"], notes), False, tuple(notes))
    return StateInput(_parse_matrix(n, doc["matrix"], notes), True, tuple(notes))


def weights_dict(w: GhzWeights) -> dict:
    return {
        "lambda0_plus": w.lambda0_plus,
        "lambda0_minus": w.lambda0_minus,
        "lambdas": w.lambdas,  # the read-only array itself, printed by dump_report
        "delta": w.delta,
        "basis_flipped": w.basis_flipped,
    }


def ensemble_dict(e) -> dict:
    """Each term's weight and factors, every amplitude as its [re, im] pair."""
    factors = np.stack([e.factors.real, e.factors.imag], -1).tolist()
    terms = [{"weight": wt, "factors": f} for wt, f in zip(e.weights.tolist(), factors)]
    return {"n_qubits": e.n_qubits, "terms": terms}


def round_floats(obj, sig: int):
    """Round every float in a JSON-ready structure to ``sig`` significant digits.

    A float64 vector stays a float64 array; any other numpy array becomes a list.
    """
    if sig >= 17:  # 17 digits keep every double exact: nothing to round
        return obj
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:  # one pass, no call per value
            return np.array([float(f"{x:.{sig}g}") for x in obj.tolist()])
        return round_floats(obj.tolist(), sig)
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    return obj


# Without an indent this encoder runs in C. allow_nan=False turns NaN and the
# infinities, which are not JSON, into a ValueError.
_encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
# Float vectors at least this long go through _floatfmt, which costs less per
# value than the C encoder's repr but more per call. Measured on pair weights
# against the encoder and the tolist it needs: 1.3-1.5x its time at 255
# values, about 1x near 400, 0.75-0.85x at 511 and 0.5-0.55x at 1,023.
_KERNEL_MIN = 400
# What json.dumps writes in place of each numeric vector. Its text has a quote
# at each end and none inside, so two of its occurrences never overlap.
_MARK = "\0array\0"
_MARK_TEXT = _encode(_MARK)
# Reports are trees, so json.dumps skips its check for cycles.
_dumps = partial(json.dumps, indent=2, ensure_ascii=False, allow_nan=False, check_circular=False)


def _vector_text(a: np.ndarray, pad: str) -> tuple[str, ...]:
    """A numeric vector in the indent=2 layout, ``pad`` deep, as pieces: its text is not copied."""
    if not len(a):
        return ("[]",)
    sep = ",\n" + pad + "  "
    text = None
    if len(a) >= _KERNEL_MIN and a.dtype == np.float64:
        from . import _floatfmt  # imported by the first long float vector only

        text = _floatfmt.repr_join(a, sep)  # None if a value is not finite
    if text is None:
        # one C call, which raises json's ValueError on NaN; a number's text never holds ", "
        text = _encode(a.tolist())[1:-1].replace(", ", sep)
    return "[\n" + pad + "  ", text, "\n" + pad + "]"


def dump_report(report: dict, precision: int = 17) -> str:
    """``json.dumps(report, indent=2, ensure_ascii=False)`` plus a newline,
    each numpy array in ``report`` taken as its ``tolist()``.

    json.dumps writes a mark for each 1-d numeric array, and the array's
    text replaces the mark at its line's indentation: one C-encoder call, or
    ``_floatfmt`` for a float64 vector of ``_KERNEL_MIN`` or more finite
    values. Other arrays go through ``tolist()``, and so does every array
    of a report holding a string that reads as the mark. Non-str keys take
    json.dumps' rules; NaN and infinities raise ValueError.
    """
    report = round_floats(report, precision)
    vectors: list[np.ndarray] = []

    def default(obj):
        if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "biuf":
            vectors.append(obj)
            return _MARK
        return np.ndarray.tolist(obj)  # a TypeError for anything but an array

    try:
        pieces = _dumps(report, default=default).split(_MARK_TEXT)
        if len(pieces) != len(vectors) + 1:  # some string in the report is the mark
            return _dumps(report, default=np.ndarray.tolist) + "\n"
        out = [pieces[0]]
        for a, before, after in zip(vectors, pieces, pieces[1:]):
            line = before.rpartition("\n")[2]  # a list item's indent, or a key's line
            out += (*_vector_text(a, line[: len(line) - len(line.lstrip())]), after)
    finally:
        # json's encoder closures form a reference cycle that keeps `default`
        # alive until the next collection: let it keep no array
        vectors.clear()
    out.append("\n")
    return "".join(out)
