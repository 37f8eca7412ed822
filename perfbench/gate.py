"""Correctness gate: every verdict passes and every pass writes the same bytes.

A pass counts only when its command exits 0, every verdict it wrote says
``passed: true`` and the bytes of its CSVs and verdicts equal those of the
first pass of the same run (the byte-identical rerun rule). Bytes are never
compared against another commit, where ulp-level changes are allowed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Outcome:
    """Checks of one pass: attempted, failed, and why they failed."""

    attempted: int = 0
    failed: int = 0
    repairs: int = 0
    checks_per_run: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.reasons.append(reason)


def collect(out_dir: Path) -> dict[str, bytes]:
    """Every file a pass wrote, keyed by its path relative to out_dir."""
    if not out_dir.is_dir():
        return {}
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def evaluate(artifacts: dict[str, bytes], exit_code: int | None,
             reference: dict[str, bytes] | None,
             checks_per_run: int = 0) -> Outcome:
    """Gate one pass.

    checks_per_run is the number of checks a completed scenario run made in
    an earlier pass of the same run; an aborted run or sweep member counts
    that many failed checks (at least one).
    """
    out = Outcome(checks_per_run=checks_per_run)
    out.check(exit_code == 0, f"command exited {exit_code}")
    verdicts = {path: json.loads(blob) for path, blob in artifacts.items()
                if path.endswith("verdict.json")}
    runs = {p: v for p, v in verdicts.items() if not p.endswith("sweep_verdict.json")}
    for v in runs.values():
        if "assertions" in v:
            real = [a for a in v["assertions"] if a["op"] != "info"]
            out.checks_per_run = max(out.checks_per_run, len(real))
            for a in real:
                out.check(a["passed"], f"{v['scenario']}: {a['name']} failed")
            out.check(v["passed"], f"{v['scenario']}: verdict not passed")
            out.repairs += v.get("repairs", 0)
    aborted = [v.get("aborted") for v in runs.values() if "assertions" not in v]
    for path, v in verdicts.items():
        if path.endswith("sweep_verdict.json"):
            out.check(v["passed"], "sweep verdict not passed")
            aborted += [m["error"] for m in v["members"] if "error" in m]
    for why in aborted:
        out.check(False, f"aborted: {why}", max(out.checks_per_run, 1))
    if not verdicts:
        out.check(False, "no verdict written")
    if reference is not None:
        changed = sorted(set(artifacts) ^ set(reference)
                         | {p for p in artifacts.keys() & reference.keys()
                            if artifacts[p] != reference[p]})
        out.check(not changed, f"bytes differ from the first pass: {changed}")
    return out
