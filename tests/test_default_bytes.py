"""The bytes of every CSV and verdict.json that the five scenario defaults
write, pinned as SHA-256 digests in default_digests.json together with the
numpy, scipy and BLAS versions that made them.

A change that moves these bytes on purpose regenerates the file, which
prints each entry that changed, appeared or vanished, and the versions if
they moved:

    PYTHONPATH=src python tests/test_default_bytes.py
"""
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import scipy

from framesync.scenarios import (
    OUTPUT_ENV,
    SCENARIOS,
    output_root,
    resolve_config,
    run_scenario,
)

DIGESTS = Path(__file__).with_name("default_digests.json")


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def digests(out: Path, scenario: str) -> dict:
    """SHA-256 of each file a scenario wrote into out, keyed scenario/name."""
    return {f"{scenario}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def test_the_scenario_defaults_keep_their_bytes(default_run):
    pinned = json.loads(DIGESTS.read_text())
    assert pinned["versions"] == versions(), (
        f"{DIGESTS.name} was made with {pinned['versions']}, this run uses "
        f"{versions()}; regenerate it with "
        f"`PYTHONPATH=src python tests/{Path(__file__).name}`")
    got = {}
    for scenario in SCENARIOS:
        got.update(digests(default_run(scenario).out, scenario))
    assert got == pinned["files"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.environ[OUTPUT_ENV] = tmp
        files = {}
        for scenario in SCENARIOS:
            cfg = resolve_config({"scenario": scenario})
            run_scenario(cfg)
            files.update(digests(output_root(cfg), scenario))
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {
        "versions": None, "files": {}}
    if old["versions"] != versions():
        print(f"versions: {old['versions']} -> {versions()}")
    for name in sorted(old["files"].keys() | files.keys()):
        was, now = old["files"].get(name), files.get(name)
        if was != now:
            change = "changed" if was and now else "appeared" if now else "vanished"
            print(f"{change}: {name}")
    DIGESTS.write_text(json.dumps({"versions": versions(), "files": files},
                                  indent=2) + "\n")
