"""Correctness oracle for one operation's structured report.

Two kinds of check: the answers known independently of the program
(`workloads.Op.expect`, see workloads.py for where each comes from) plus
cheap theorem-level invariants, and the report's digest against the one
recorded for that operation in digests.json.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List


def digest(doc: Dict) -> str:
    """sha256 of the report, minus the input path (it names a scratch file)."""
    doc = dict(doc)
    config = dict(doc.get("config", {}))
    config.pop("input", None)
    doc["config"] = config
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def known_answer_problems(op, doc: Dict) -> List[str]:
    exp = op.expect
    out = []
    try:
        for key in ("rank_log", "controller_estimate", "by_formula", "by_commutation",
                    "nilpotency_class"):
            if key in exp and doc[key] != exp[key]:
                out.append(f"{key} = {doc[key]!r}, expected {exp[key]!r}")
        if "axis2" in exp:
            got = [cell["value"] for cell in doc["table"]["2"]]
            if got != exp["axis2"]:
                out.append(f"growth of axis 2 = {got}, expected {exp['axis2']}")
        if op.command == "control":
            whole = ",".join(["0"] * exp["dim"])
            if doc["lattice"][whole] != {"definitional": True, "by_action": True}:
                out.append("U = G is reported as not controlling")
            if not 0 <= doc["rank_log"] <= exp["full_rank"]:
                out.append(f"rank_log {doc['rank_log']} outside [0, N|Q|]")
        if op.command == "mahler" and doc["by_formula"] != doc["by_commutation"]:
            out.append("factorization criteria disagree")
    except (KeyError, TypeError) as exc:
        out.append(f"malformed report: missing {exc}")
    return out


def problems(op, report: str, digests: Dict[str, str]) -> List[str]:
    """Everything wrong with ``report`` (the CLI's stdout) for ``op``."""
    try:
        doc = json.loads(report)
    except ValueError:
        return ["report is not JSON"]
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    out = known_answer_problems(op, doc)
    want = digests.get(op.key)
    if want is None:
        out.append("no recorded digest for this operation")
    elif digest(doc) != want:
        out.append("report differs from the recorded digest")
    return out
