"""The output bits pinned in tests/data/pins.txt, recomputed.

Each pin is one `name=value` line: a `simulate` manifest hash, the
`float.hex` of one RI estimate, or a SHA-256 of CLI stdout (see
tools/bits.py).  A change that moves output bits on purpose rewrites the
file with `python3 tools/bits.py --write-pins` and names each changed line.
"""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bits", _ROOT / "tools" / "bits.py")
bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bits)

PINNED = dict(line.split("=", 1) for line in bits.read_pins())


@pytest.fixture(scope="module")
def computed() -> dict:
    return dict(line.split("=", 1) for line in bits.pin_lines(_ROOT))


def test_the_pins_cover_every_output():
    assert len(PINNED) == 9 + 13 + 2
    assert {name for name in PINNED if name.startswith("simulate ")} == {
        f"simulate sha256[{stem}.csv]" for stem in (
            "histogram", *(f"bins_{m}{by}" for m in ("euclidean", "chebyshev", "max_ratio",
                                                     "kendall") for by in ("", "_by_delta")))}
    assert {f"ri[{n}]" for n in range(3, 16)} | {"verify", "single"} <= PINNED.keys()


def test_the_same_pins_are_computed(computed):
    assert computed.keys() == PINNED.keys()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pin(computed, name):
    assert computed.get(name) == PINNED[name]
