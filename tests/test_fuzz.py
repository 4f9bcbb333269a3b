"""Property tests: malformed matrix files and simulation configs are
rejected with PcmError or ValueError, and the CLI turns them into exit
code 2 with a one-line message, never a traceback."""

import contextlib
import io
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcmkit import PCMatrix, PcmError, parse_matrix_text, reconcile_matrix_text, validate
from pcmkit.cli import _parse_simulation_config, main
from pcmkit.core import STRICT_FILE_POLICY, _token_rows
from pcmkit.montecarlo import SimulationConfig

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

_counter = itertools.count()

big_int = st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
number_token = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=1e-320, max_value=1e308).map(repr),
    st.integers(min_value=-20, max_value=20).map(str),
    big_int.map(str),
    st.tuples(big_int, big_int).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.tuples(st.integers(1, 9), st.integers(-400, 400)).map(lambda me: f"{me[0]}e{me[1]}"),
    st.decimals(allow_nan=True, allow_infinity=True).map(str),
    st.sampled_from(["1/0", "0/0", "nan", "-inf", "1/", "/3", "1//2", "0x10", "1_0",
                     "１", "1e", ".", "-0", "0.0", "1.2.3", "½"]),
)
token = st.one_of(number_token, st.text(min_size=1, max_size=6).filter(lambda t: not t.isspace()))


@st.composite
def matrix_texts(draw):
    """Mostly well-shaped files: an order line, rows of tokens, comments."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=200))
    n = draw(st.integers(-1, 6))
    order = draw(st.one_of(st.just(str(n)), token)) if draw(st.booleans()) else str(n)
    lines = [order]
    for _ in range(draw(st.integers(0, max(n, 0) + 1))):
        width = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        row = draw(st.lists(token, min_size=max(width, 0), max_size=max(width, 0)))
        lines.append(" ".join(row))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "   ", "#"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def reciprocal_texts(draw):
    """Exactly reciprocal matrices with entries anywhere in float range,
    printed at full precision, with at most one entry replaced."""
    n = draw(st.integers(3, 5))
    a = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u = draw(st.floats(min_value=1e-300, max_value=1e300))
            a[i][j], a[j][i] = u, 1.0 / u
    rows = [[repr(v) for v in row] for row in a]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(number_token)
    return f"{n}\n" + "\n".join(" ".join(r) for r in rows) + "\n"


def _load(text: str):
    """The CLI's loader: parse, then validate strictly at the file tolerance."""
    return validate(parse_matrix_text(text), STRICT_FILE_POLICY)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PcmError, ValueError) as exc:
        return exc


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _token_by_token(text: str) -> np.ndarray:
    """The reference for `parse_matrix_text`, which parses a row in one
    call: every token parsed on its own, a fraction through Fraction."""
    from fractions import Fraction

    def token(t, lineno):
        try:
            return float(Fraction(t)) if "/" in t else float(t)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: cannot parse entry {t!r}") from exc

    return np.array([[token(t, lineno) for t in tokens] for lineno, tokens in _token_rows(text)],
                    dtype=float)


def _row_text(*tokens: str) -> str:
    """A 3x3 matrix text whose second row holds `tokens`."""
    return "3\n1 2 3\n" + " ".join(tokens) + "\n1/3 1/2 1\n"


class TestMatrixText:
    @FUZZ
    @given(st.one_of(matrix_texts(), reciprocal_texts()))
    @example(_row_text("1_0", "1", "2"))
    @example(_row_text("0.5", "½", "2"))
    @example(_row_text("1/0", "1", "2"))
    @example(_row_text("nan", "1", "2"))
    @example(_row_text("1/2", "1", "x"))
    @example(_row_text("1_0", "½", "1/0"))
    def test_one_call_per_row_parses_as_token_by_token(self, text):
        got, want = _outcome(parse_matrix_text, text), _outcome(_token_by_token, text)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:
            assert type(got) is type(want) and str(got) == str(want)

    @FUZZ
    @given(st.one_of(matrix_texts(), reciprocal_texts()))
    def test_parse_then_validate(self, text):
        result = _outcome(_load, text)
        assert isinstance(result, (PCMatrix, PcmError, ValueError))

    @FUZZ
    @given(st.one_of(matrix_texts(), reciprocal_texts()))
    def test_reconcile(self, text):
        result = _outcome(reconcile_matrix_text, text)
        assert isinstance(result, (PCMatrix, PcmError, ValueError))

    @FUZZ
    @given(text=st.one_of(matrix_texts(), reciprocal_texts()),
           command=st.sampled_from(["weights", "consistency", "compare"]))
    def test_cli_exits_2_on_rejected_input(self, scratch, text, command):
        path = scratch / f"m{next(_counter)}.txt"
        path.write_text(text, encoding="utf-8")
        code, err = _run_cli([command, str(path)])
        if isinstance(_outcome(_load, text), PCMatrix):
            assert code in (0, 2)
        else:
            assert code == 2
        if code == 2:
            assert err.startswith("pcmkit: error: ") and err.count("\n") == 1


config_value = st.one_of(
    number_token,
    st.lists(number_token, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["4,5", "3", "1,2", "0.005", "42", "", "4,,5", " 4 , 5 ", "4 # c"]),
    st.text(max_size=8),
)
config_key = st.one_of(
    st.sampled_from(["dims", "deltas", "counts", "seed", "bin_width", "min_bin_count",
                     "cr_cap", "ri_table"]),
    st.text(max_size=8),
)


@st.composite
def config_texts(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=200))
    base = {"dims": "4", "deltas": "1", "counts": "10", "seed": "1"}
    for key in draw(st.lists(st.sampled_from(sorted(base)), unique=True)):
        del base[key]
    for key, value in draw(st.lists(st.tuples(config_key, config_value), max_size=4)):
        base[key] = value
    lines = [f"{k}={v}" for k, v in base.items()]
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=10)))
    return "\n".join(lines) + "\n"


class TestSimulationConfigText:
    @FUZZ
    @given(config_texts())
    def test_parse(self, scratch, text):
        path = scratch / f"c{next(_counter)}.cfg"
        path.write_text(text, encoding="utf-8")
        result = _outcome(_parse_simulation_config, str(path))
        if isinstance(result, tuple):
            config, _ = result
            assert isinstance(config, SimulationConfig)
            assert config.n_bins >= 1
        else:
            assert isinstance(result, (PcmError, ValueError))
            # A valid config would run a whole simulation; only rejected
            # ones go through the CLI.
            code, err = _run_cli(["simulate", str(path), "--out", str(scratch / "out")])
            assert code == 2
            assert err.startswith("pcmkit: error: ") and err.count("\n") == 1


_FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    """Under the repository's pytest settings, which turn warnings into
    errors, a failing hypothesis test is reported as a failure and the tests
    after it still run."""
    (tmp_path / "test_pair.py").write_text(_FAILING_THEN_PASSING)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(config), "--rootdir", str(tmp_path), "test_pair.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
