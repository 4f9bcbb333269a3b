"""Core domain types for pairwise comparison matrices.

A pairwise comparison matrix stores positive judgment ratios: entry (i, j)
says how many times alternative i is preferred to alternative j.  The
diagonal is exactly one and mirrored entries multiply to one (reciprocity).
This module owns construction, validation and the plain-text matrix file
format consumed by the CLI.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, partial

import numpy as np

from ._power import _max, _sum
from .errors import (
    NonPositiveEntryError,
    NonPositiveWeightError,
    NonSquareError,
    ReciprocityViolationError,
)

# The ufunc reduction behind ndarray.all, called directly, as `_power` calls
# the ones behind .sum and .max: on a small array the wrapper costs more
# than the reduction, and the result is the same.
_all = np.logical_and.reduce

# Reciprocity residuals beyond this are rejected outright whatever the
# policy: the input is then not a rounded reciprocal matrix but a
# different matrix altogether.
MAX_RECIPROCITY_TOLERANCE = 0.1

# Programmatic construction is expected to be exact up to float rounding;
# file input is typically printed with 3-4 decimals, hence the looser gate.
DEFAULT_API_TOLERANCE = 1e-9
DEFAULT_FILE_TOLERANCE = 1e-3


class ReciprocityMode(enum.Enum):
    STRICT = "strict"
    REPAIR_FROM_UPPER = "repair-from-upper"


@dataclass(frozen=True)
class ReciprocityPolicy:
    """How validation treats imperfect reciprocity.

    STRICT rejects any mirrored pair whose product deviates from one by
    more than `tolerance`.  REPAIR_FROM_UPPER keeps the upper triangle and
    overwrites the lower triangle with exact reciprocals (diagonal forced
    to one), which is the right default when feeding matrices into
    simulations that must never see asymmetric noise.
    """

    mode: ReciprocityMode = ReciprocityMode.STRICT
    tolerance: float = DEFAULT_API_TOLERANCE

    def __post_init__(self):
        if not (0.0 < self.tolerance <= MAX_RECIPROCITY_TOLERANCE):
            raise ValueError(
                f"reciprocity tolerance must lie in (0, {MAX_RECIPROCITY_TOLERANCE}], "
                f"got {self.tolerance}"
            )


STRICT_API_POLICY = ReciprocityPolicy()
STRICT_FILE_POLICY = ReciprocityPolicy(tolerance=DEFAULT_FILE_TOLERANCE)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


# Dataclasses holding arrays compare by identity: a generated __eq__ raises on them.
@dataclass(frozen=True, eq=False)
class PCMatrix:
    """Immutable positive reciprocal judgment matrix.

    Structural invariants are enforced on construction: square with at
    least two alternatives, strictly positive entries, unit diagonal, and
    mirrored products within the hard reciprocity bound.  Instances are
    safe to share across concurrent workers.

    `_eigen` is private to `weighting`: one slot, filled on first use,
    holding the Perron pairs of this instance and of its transpose from one
    solve, and the vectors and CI derived from them.  It takes no part in
    repr, and is neither pickled nor copied.
    """

    entries: np.ndarray
    _eigen: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # The bound on mirrored products; `validate` passes its policy's, which
    # lies within the hard bound, so that the residual is computed once.
    _tolerance: InitVar[float] = MAX_RECIPROCITY_TOLERANCE

    def __post_init__(self, _tolerance):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n < 2:
            raise NonSquareError("a pairwise comparison matrix needs at least 2 alternatives")
        _check_positive(a)
        diag = np.diag(a)
        if not _all(diag == 1.0):
            i = int(np.argmax(diag != 1.0))
            raise ReciprocityViolationError(i, i, diag[i] * diag[i] - 1.0)
        residual = np.abs(a * a.T - 1.0)
        if _max(residual, axis=None) > _tolerance:
            i, j = np.unravel_index(int(np.argmax(residual)), residual.shape)
            raise ReciprocityViolationError(int(i), int(j), float(a[i, j] * a[j, i] - 1.0))
        object.__setattr__(self, "entries", _as_readonly(a))

    def __getstate__(self):
        return {"entries": self.entries}

    def __setstate__(self, state):
        object.__setattr__(self, "entries", _as_readonly(state["entries"]))
        object.__setattr__(self, "_eigen", None)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __getitem__(self, key):
        return self.entries[key]


def _require_vector(p: np.ndarray, what: str) -> float:
    """The checks every WeightVector passes: one dimension, >= 2 entries, all
    finite and positive, and a sum that does not overflow.  Returns the sum;
    raises NonPositiveWeightError naming the entries `what` otherwise."""
    if p.ndim != 1 or p.size < 2:
        raise NonPositiveWeightError(f"expected a vector of >= 2 {what}, got shape {p.shape}")
    if not _all(np.isfinite(p) & (p > 0.0)):
        raise NonPositiveWeightError("all priorities must be strictly positive and finite")
    with np.errstate(over="ignore"):
        total = _sum(p)
    if not np.isfinite(total):
        raise NonPositiveWeightError(f"the sum of the {what} overflows")
    return total


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Priority vector: positive, finite entries that sum to 1 within 1e-9."""

    priorities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.priorities, dtype=float)
        total = _require_vector(p, "priorities")
        if abs(total - 1.0) > 1e-9:
            raise NonPositiveWeightError(f"priorities sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "priorities", _as_readonly(p))

    @property
    def n(self) -> int:
        return self.priorities.shape[0]


def _unit_vectors(rows: np.ndarray) -> list:
    """Unit-sum WeightVectors of the rows of a C-contiguous (k, n) array, made
    read-only, checked in one pass.  Each row sums in a lone vector's order,
    so it gets WeightVector's verdict; one that fails comes back as the
    `partial(WeightVector, ...)` that raises its error."""
    rows.flags.writeable = False
    ok = _all(np.isfinite(rows) & (rows > 0.0), axis=1) & (np.abs(_sum(rows, axis=1) - 1.0) <= 1e-9)
    vectors = []
    for row, good in zip(rows, ok.tolist()):
        if good:
            v = WeightVector.__new__(WeightVector)
            v.__dict__.update(priorities=row)
        else:
            v = partial(WeightVector, row)
        vectors.append(v)
    return vectors


def _check_positive(a: np.ndarray) -> None:
    ok = np.isfinite(a) & (a > 0.0)
    if not _all(ok, axis=None):
        i, j = np.unravel_index(int(np.argmax(~ok)), a.shape)
        raise NonPositiveEntryError(int(i), int(j), float(a[i, j]))


@lru_cache(maxsize=32)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, made once per order and returned read-only."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def reciprocal_from_upper(upper, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """(n, n, ...) matrices from their upper-triangle entries, given in
    row-major order along the first axis: each lower entry is the reciprocal
    of its mirror and the diagonal is one.  A stack is batch-last, the
    layout of `power_iterate`.  With `out`, every entry of that array is
    written and it is returned."""
    upper = np.asarray(upper, dtype=float)
    iu, ju = _upper_indices(n)
    mats = np.empty((n, n) + upper.shape[1:]) if out is None else out
    diag = np.arange(n)
    mats[diag, diag] = 1.0
    mats[iu, ju] = upper
    mats[ju, iu] = 1.0 / upper
    return mats


def validate(matrix, policy: ReciprocityPolicy | None = None) -> PCMatrix:
    """Validate raw judgments into a PCMatrix under a reciprocity policy.

    STRICT returns a matrix only if every invariant holds within the
    policy tolerance; REPAIR_FROM_UPPER trusts the upper triangle and
    rebuilds the rest.  Orders below 3 are rejected here because the
    consistency machinery (CI denominator n-1, random indices) is
    meaningless for them.
    """
    if policy is None:
        policy = STRICT_API_POLICY
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 3:
        raise NonSquareError(f"validation requires order >= 3, got n = {n}")

    if policy.mode is ReciprocityMode.REPAIR_FROM_UPPER:
        # PCMatrix names the first bad entry in row-major order, a bad upper one before its
        # mirror; the mirror of a zero or subnormal entry is inf, with no numpy warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = reciprocal_from_upper(a[_upper_indices(n)], n)
        return PCMatrix(a)

    return PCMatrix(a, policy.tolerance)


def normalize(raw) -> WeightVector:
    """Scale positive components so they sum to one."""
    p = np.asarray(raw, dtype=float)
    total = _require_vector(p, "components")
    return WeightVector(p * (1.0 / total))


# ---------------------------------------------------------------------------
# Matrix text format: first data line holds n, the next n lines hold n
# whitespace-separated tokens each, every token a decimal or a fraction
# "p/q".  Lines starting with '#' are comments; after the n rows only
# comments and blank lines may follow.
# ---------------------------------------------------------------------------

def _parse_token(token: str, lineno: int) -> float:
    try:
        if "/" in token:
            # Fractions are parsed exactly, then rounded once to float.
            from fractions import Fraction

            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"line {lineno}: cannot parse entry {token!r}") from exc


def _token_rows(text: str):
    """Yield the n matrix rows of the text format as (line number, tokens).
    A data line after the n-th row raises ValueError once that row has
    been taken."""
    n: int | None = None
    found = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if found == n:
            raise ValueError(f"line {lineno}: unexpected data after the {n} matrix rows")
        if n is None:
            try:
                n = int(stripped)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: expected the matrix order, got {stripped!r}") from exc
            if n < 2:
                raise ValueError(f"line {lineno}: order must be >= 2, got {n}")
            continue
        tokens = stripped.split()
        if len(tokens) != n:
            raise ValueError(f"line {lineno}: expected {n} entries, got {len(tokens)}")
        yield lineno, tokens
        found += 1
    if n is None:
        raise ValueError("empty matrix file")
    if found < n:
        raise ValueError(f"expected {n} matrix rows, found {found}")


def _parse_row(tokens: list[str], lineno: int) -> list[float]:
    """One row's entries.  A row of plain decimals is parsed in one call;
    any other row token by token, which parses fractions exactly and names
    the first token that fails."""
    try:
        return list(map(float, tokens))
    except ValueError:
        return [_parse_token(t, lineno) for t in tokens]


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the text format into a raw entry array (no validation)."""
    return np.array([_parse_row(tokens, lineno) for lineno, tokens in _token_rows(text)],
                    dtype=float)


def _printed_interval(token: str, lineno: int) -> tuple[Fraction, Fraction]:
    """Exact value of a token and half a unit of its last printed digit.

    Fractions and integers are exact (half-unit 0); a decimal such as
    0.574 stands for every value that rounds to it, here +-0.0005.
    """
    # Imported here, as in _parse_token: fractions loads decimal.
    from fractions import Fraction

    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"line {lineno}: cannot parse entry {token!r}") from exc
    if "/" in token:
        return value, Fraction(0)
    mantissa, _, exponent = token.lower().partition("e")
    _, dot, decimals = mantissa.partition(".")
    if not dot and not exponent:
        return value, Fraction(0)
    return value, Fraction(10) ** (int(exponent or 0) - len(decimals)) / 2


def reconcile_matrix_text(text: str) -> PCMatrix:
    """Load a matrix whose two triangles were rounded independently.

    A published matrix printed with decimals rounds a_ij and a_ji = 1/a_ij
    separately, so as printed it is not reciprocal.  The printed digits
    bound the true upper entry u of each pair (i, j) to

        [max(p_ij - h_ij, 1/(p_ji + h_ji)), min(p_ij + h_ij, 1/(p_ji - h_ji))]

    with h the half-unit of each token's last digit.  The matrix is rebuilt
    exactly reciprocal from the midpoint of every such interval, in exact
    rational arithmetic, so matrices printed with fractions and integers
    only load exactly as `validate(parse_matrix_text(text))` loads them.
    An empty interval means the triangles contradict each other beyond
    their printed precision: ReciprocityViolationError names the pair.
    """
    a = parse_matrix_text(text)
    _check_positive(a)
    printed = [[_printed_interval(t, lineno) for t in tokens]
               for lineno, tokens in _token_rows(text)]
    n = a.shape[0]
    for i, j in zip(*(k.tolist() for k in _upper_indices(n))):
        (p, hp), (q, hq) = printed[i][j], printed[j][i]
        low = max(p - hp, 1 / (q + hq))
        high = min(p + hp, 1 / (q - hq))
        if low > high:
            raise ReciprocityViolationError(i, j, float(a[i, j] * a[j, i] - 1.0))
        mid = (low + high) / 2
        a[i, j] = float(mid)
        a[j, i] = float(1 / mid)
    return validate(a)


def load_matrix(path, policy: ReciprocityPolicy | None = None) -> PCMatrix:
    """Read a matrix file.  Default policy: STRICT at the file tolerance."""
    if policy is None:
        policy = STRICT_FILE_POLICY
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_matrix_text(fh.read())
    return validate(raw, policy)


def format_matrix_text(matrix: PCMatrix, comments: tuple[str, ...] = ()) -> str:
    """Render a matrix in the text format with full float precision."""
    lines = [f"# {c}" for c in comments]
    lines.append(str(matrix.n))
    for row in matrix.entries:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
