"""The benchmark's workloads, their reference checks and witness digests.

An operation is one user command run in-process: a ``classify`` call on a
prepared example, or ``freesplit.cli.main`` with stdout captured.  Inputs
are built by ``build(workload)``; every operation then runs once.  Each
outcome is checked against a reference the benchmark computes itself and
reduced to a digest of its verdict and witness.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from dataclasses import dataclass
from typing import Callable

from freesplit import cli
from freesplit.automorphisms import abelianization, compose_maps, identity_map
from freesplit.fixtures import (ExampleSpec, bdd_no_periodic, fixture,
                                filling_reducible, linear_example)
from freesplit.graphs import marked_rose, realize_rose_endo
from freesplit.words import BWD, FWD

# The package re-exports ``classify`` the function under the module's name.
classify_mod = importlib.import_module("freesplit.classify")

# Statuses of one operation.  ``failed`` covers the last three.
DECIDED, UNDECIDED = "decided", "undecided"
CONTRADICTION, WITNESS_FAILED, ERROR = "contradiction", "witness_failed", "error"
FAILED = (CONTRADICTION, WITNESS_FAILED, ERROR)

LOXODROMIC_RANK2 = ("rank2_tr3", "rank2_tr3_alt", "rank2_tr-3", "rank2_tr4",
                    "rank2_tr-4")

# Rank-2 sweep generators: x1<->x2, x1 -> x1^-1, x1 -> x1 x2.
SWEEP_GENERATORS = ((FWD[1], FWD[0]), (BWD[0], FWD[1]), (FWD[0] + FWD[1], FWD[1]))
SWEEP_MAX_LENGTH = 5


@dataclass(frozen=True)
class Operation:
    op_id: str
    run: Callable[[], dict]  # returns the outcome to check and digest
    check: Callable[[dict], str]  # outcome -> status


# -- reference checks ------------------------------------------------------


def gl2_loxodromic(matrix) -> bool:
    """Hyperbolicity in GL2(Z): |tr| > 2 when det = 1, tr != 0 when det = -1."""
    (a, b), (c, d) = matrix
    det, tr = a * d - b * c, a + d
    if det not in (1, -1):
        raise ValueError(f"determinant {det} is not a unit")
    return abs(tr) > 2 if det == 1 else tr != 0


def _verdict_status(verdict: str, expected: str) -> str | None:
    """Status from the verdict alone, or None when the witness decides."""
    if verdict == "Unknown":
        return UNDECIDED
    if verdict != expected:
        return CONTRADICTION
    return None


def check_loxodromic(outcome: dict) -> str:
    status = _verdict_status(outcome["verdict"], "Loxodromic")
    if status is not None:
        return status
    ok = (outcome["witness_kind"] == "displacement-table"
          and outcome["witness"].get("slope_exact") is True)
    return DECIDED if ok else WITNESS_FAILED


def chain_ok(chain: dict) -> bool:
    arrows = chain.get("arrows", [])
    collapses = [a for a in arrows if a["move"] == "collapse"]
    return (len(chain.get("vertices", [])) == 5 and len(collapses) == 4
            and all(a["ok"] is True for a in arrows))


def check_bounded(outcome: dict) -> str:
    status = _verdict_status(outcome["verdict"], "BoundedOrbits")
    if status is not None:
        return status
    ok = (outcome["witness_kind"] == "length-4-chain"
          and chain_ok(outcome["witness"]))
    return DECIDED if ok else WITNESS_FAILED


def check_report(outcome: dict) -> str:
    if outcome["exit"] != 0:
        return ERROR
    results = outcome["report"]["results"]
    status = check_loxodromic(results["classification"])
    if status == DECIDED and results["displacement"]["slope_exact"] is not True:
        return WITNESS_FAILED
    return status


def check_distance(outcome: dict) -> str:
    if outcome["exit"] != 0:
        return ERROR
    results = outcome["report"]["results"]
    return DECIDED if results["bound"] == 4 and chain_ok(results["chain"]) \
        else WITNESS_FAILED


def check_rank2(loxodromic: bool) -> Callable[[dict], str]:
    def check(outcome: dict) -> str:
        if outcome["verdict"] == "Unknown":
            return UNDECIDED
        return DECIDED if (outcome["verdict"] == "Loxodromic") == loxodromic \
            else CONTRADICTION
    return check


# -- outcomes and digests --------------------------------------------------


def classify_outcome(spec: ExampleSpec) -> dict:
    c = classify_mod.classify(spec)
    return {"verdict": c.verdict, "witness_kind": c.witness_kind,
            "witness": c.witness, "stage": c.stage, "power": c.power}


def cli_outcome(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue()) if code == 0 else None
    if report is not None:
        # notes may be reshaped by the report contract; digest the rest
        report["results"].get("classification", {}).pop("notes", None)
    return {"exit": code, "report": report}


def tally(records) -> dict[str, int]:
    return {s: sum(r["status"] == s for r in records)
            for s in (DECIDED, UNDECIDED) + FAILED}


def outputs_correct(counts: dict[str, int]) -> bool:
    """No wrong verdict and no failed witness check.  An exception is a
    failed operation, not a wrong output."""
    return counts[CONTRADICTION] == 0 and counts[WITNESS_FAILED] == 0


def digest(outcome: dict) -> str:
    text = json.dumps(outcome, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _json_default(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"unserializable {type(obj)!r}")


# -- workloads -------------------------------------------------------------


def sweep_maps() -> list[tuple[str, ...]]:
    """Distinct rank-2 basis maps that are products of at most five
    generators, in breadth-first order from the identity."""
    seen = {identity_map(2)}
    order = [identity_map(2)]
    frontier = order[:]
    for _ in range(SWEEP_MAX_LENGTH):
        nxt = []
        for bm in frontier:
            for gen in SWEEP_GENERATORS:
                prod = compose_maps(gen, bm)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        order += nxt
        frontier = nxt
    return order


def _classify_op(op_id: str, spec: ExampleSpec, check) -> Operation:
    return Operation(op_id, lambda: classify_outcome(spec), check)


def _cli_op(argv: list[str], check) -> Operation:
    return Operation("cli " + " ".join(argv), lambda: cli_outcome(argv), check)


def build(workload: str) -> list[Operation]:
    """Build and validate every input of a workload, in a fixed order."""
    ops: list[Operation] = []
    if workload == "loxodromic":
        for m in (2, 3, 4):
            ops.append(_classify_op(f"classify filling_reducible m={m}",
                                    filling_reducible(m), check_loxodromic))
        ops.append(_classify_op("classify linear_example", linear_example(),
                                check_loxodromic))
        ops.append(_cli_op(["report", "--fixture", "divergence", "--json"],
                           check_report))
        for key in LOXODROMIC_RANK2:
            ops.append(_classify_op(f"classify {key}", fixture(key),
                                    check_loxodromic))
    elif workload == "bounded":
        for m in (2, 3, 4):
            ops.append(_classify_op(f"classify bdd_no_periodic m={m}",
                                    bdd_no_periodic(m), check_bounded))
        for k in (1, 2, 3):
            ops.append(_cli_op(["distance", "--fixture", "bdd_no_periodic",
                                "--k", str(k), "--json"], check_distance))
    elif workload == "rank2_sweep":
        mg = marked_rose(2)
        for i, bm in enumerate(sweep_maps()):
            spec = ExampleSpec(f"sweep{i:03d}", mg,
                               {"f": realize_rose_endo(mg, bm)}, None)
            lox = gl2_loxodromic(abelianization(bm))
            ops.append(_classify_op(f"classify sweep{i:03d} {'/'.join(bm)}",
                                    spec, check_rank2(lox)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops

