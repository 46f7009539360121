"""The full-scale design's output bytes, pinned by digest.

``experiment --replicates 1000 --seed 0`` runs the 1000-replicate design of
all eight scenarios, about 10-20 s on two cores, so it runs only with
``SPATENT_FULL_SCALE=1``.  Its two files must hold the sha256 prefixes
below, as the 10-replicate pins of ``test_cli.py`` do for the small design.
"""

import hashlib
import os

import pytest

from spatent.cli import main

PINS = {"results_long.csv": "29a6bc301a3b5dc4", "summary.csv": "c5734a42792e0cfd"}


@pytest.mark.skipif(
    os.environ.get("SPATENT_FULL_SCALE") != "1",
    reason="set SPATENT_FULL_SCALE=1 to run the 1000-replicate design",
)
def test_full_scale_design_writes_its_pinned_bytes(tmp_path):
    out = tmp_path / "full"
    assert main(["experiment", "--replicates", "1000", "--seed", "0", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] for name in PINS}
    assert digests == PINS
