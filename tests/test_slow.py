"""Checks too slow for every test run; they run only with PCMKIT_SLOW=1.

    PCMKIT_SLOW=1 PYTHONPATH=src python -m pytest -q tests/test_slow.py
"""

import os
from importlib import resources

import pytest

from pcmkit import default_ri_table
from pcmkit.cli import main

pytestmark = pytest.mark.skipif(os.environ.get("PCMKIT_SLOW") != "1",
                                reason="slow; set PCMKIT_SLOW=1 to run")


def test_shipped_ri_table_rederives_from_its_provenance(tmp_path, capsys):
    """`ri-estimate` rebuilds the shipped table byte for byte from the
    sample count and seeds its own lines record (order n uses base seed + n).
    One to two minutes on 2 cores."""
    table = default_ri_table()
    orders = table.orders
    samples = {table.provenance_of(n).samples for n in orders}
    base_seeds = {table.provenance_of(n).seed - n for n in orders}
    assert len(samples) == len(base_seeds) == 1
    assert orders == tuple(range(orders[0], orders[-1] + 1))

    out = tmp_path / "ri_table.txt"
    argv = ["ri-estimate", "--orders", f"{orders[0]}-{orders[-1]}",
            "--samples", str(samples.pop()), "--seed", str(base_seeds.pop()),
            "--workers", "2", "--out", str(out)]
    assert main(argv) == 0
    shipped = resources.files("pcmkit").joinpath("data/ri_table.txt").read_text()
    assert out.read_text() == shipped
