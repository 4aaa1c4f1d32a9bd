"""Command line interface.

Subcommands: classify, w, leaf, fills, distance, report, fixtures.  All
but fixtures read exactly one of ``--fixture NAME`` and ``--input FILE``.
Each takes only the flags it reads; any other is a usage error (exit 2).
Deterministic output; ``--json`` prints the full report to stdout, and
``--out DIR`` writes it to a file as well.  Exit status 0 covers honest
verdicts including Unknown; nonzero means a usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import sys

from .automorphisms import invert_map
from .classify import bounded_path_witness, classify
from .config import load_config
from .errors import BudgetExhausted, FixtureInvalid, InvalidInput, NotApplicable
from .fixtures import ExampleSpec, fixture, fixture_names
from .graphs import parse_marked_graph, strata
from .laminations import lamination_approx
from .pairs import one_edge_splitting
from .reports import dump_report, make_report
from .whitehead import fills
from .wproj import build_context, divergence_check, w_of


# the optional flags a command may take; each takes only those it reads
_FLAGS = {
    "--config": {"help": "key=value config file"},
    "--power": {"type": int},
    "--seg-len": {"type": int},
    "--horizon": {"type": int},
}


def _common(p: argparse.ArgumentParser, *flags: str):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", help="catalog fixture name")
    source.add_argument("--input", help="graph/map file in the text format")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("--out", help="directory for the JSON report")
    p.add_argument("--json", action="store_true", help="print JSON to stdout")


def _load_cfg(args):
    over = {key: value for key in ("seg_len", "horizon")
            if (value := getattr(args, key, None)) is not None}
    return dataclasses.replace(load_config(args.config), **over)


def _load_spec(args):
    if args.input is None:
        return fixture(args.fixture)
    try:
        text = pathlib.Path(args.input).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInput(f"cannot read input file: {exc}") from exc
    mg, endo, _ = parse_marked_graph(text)
    if endo is None:
        raise InvalidInput("input file carries no MAP section")
    try:
        invert_map(mg.induced_rose_map(endo))
    except InvalidInput as exc:
        raise InvalidInput("map is not a homotopy equivalence: its basis "
                           "images do not generate the free group") from exc
    return ExampleSpec(pathlib.Path(args.input).stem, mg, {"f": endo}, None)


def _closed_path(spec: ExampleSpec, tokens: str) -> str:
    """The edge path spelled by ``tokens``; only a closed one is a class."""
    graph = spec.mg.graph
    path = graph.parse_path(tokens.split())
    if not graph.is_closed(path):
        raise InvalidInput(f"edge path {tokens!r} is not closed")
    return path


def _emit(args, report: dict, human: str) -> int:
    text = dump_report(report)
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{report['command']}-{report['parameters'].get('name', 'input')}.json"
        (out / name).write_text(text, encoding="utf-8")
    if args.json:
        sys.stdout.write(text)
    else:
        print(human)
    return 0


def cmd_classify(args) -> int:
    cfg = _load_cfg(args)
    spec = _load_spec(args)
    result = classify(spec, cfg, power=args.power)
    report = make_report("classify", {"name": spec.name, "power": result.power},
                         result.to_json(), verdict=result.verdict)
    human = f"{spec.name}: {result.verdict}"
    if result.stage:
        human += f" (stage: {result.stage})"
    return _emit(args, report, human)


def cmd_w(args) -> int:
    cfg = _load_cfg(args)
    spec = _load_spec(args)
    path = _closed_path(spec, args.word)
    if not spec.mg.circuit_to_rose_class(path):
        raise InvalidInput(f"class {args.word!r} is trivial")
    ctx = build_context(spec.mg, spec.f, cfg)
    res = w_of(ctx, spec.mg.path_to_rose(path))
    report = make_report(
        "w", {"name": spec.name, "class": args.word},
        {"status": res.status, "value": res.value,
         "forward_entry": res.fwd_entry})
    human = f"w([{args.word}]) = {res.value}" if res.defined \
        else f"w([{args.word}]): {res.status}"
    return _emit(args, report, human)


def cmd_leaf(args) -> int:
    cfg = _load_cfg(args)
    spec = _load_spec(args)
    filt = strata(spec.f)
    eg = filt.eg_strata()
    if not eg:
        raise InvalidInput("map has no exponential stratum")
    if not 0 <= args.stratum < len(eg):
        raise InvalidInput(f"--stratum must be in 0..{len(eg) - 1}, the map's "
                           f"{len(eg)} exponential strata")
    if args.depth < 0:
        raise InvalidInput(f"--depth must be at least 0, got {args.depth}")
    idx = eg[args.stratum]
    lam = lamination_approx(spec.mg, spec.f, idx, cfg, filt)
    segs = {k: spec.mg.graph.print_path(s) for k, s in
            enumerate(lam.segments[: args.depth + 1])}
    report = make_report(
        "leaf", {"name": spec.name, "stratum": idx, "depth": args.depth},
        {"seed": spec.mg.graph.edge_names[lam.seed],
         "segments": segs, "lengths": [len(s) for s in lam.segments]})
    human = "\n".join(f"depth {k}: {v if len(v) < 120 else v[:117] + '...'}"
                      for k, v in segs.items())
    return _emit(args, report, human)


def cmd_fills(args) -> int:
    spec = _load_spec(args)
    classes = [spec.mg.circuit_to_rose_class(_closed_path(spec, tokens))
               for tokens in args.classes]
    verdict = fills(classes, spec.mg.rank)
    report = make_report("fills", {"name": spec.name, "classes": args.classes},
                         verdict.to_json(), verdict=verdict.kind)
    return _emit(args, report, f"fills: {verdict.kind}")


def cmd_distance(args) -> int:
    cfg = _load_cfg(args)
    spec = _load_spec(args)
    if not spec.decomposition:
        raise InvalidInput("distance command needs a fixture with "
                           "decomposition data")
    chain = bounded_path_witness(spec, args.k, cfg)
    report = make_report(
        "distance", {"name": spec.name, "k": args.k},
        {"bound": len([a for a in chain.arrows if a["move"] == "collapse"]),
         "chain": chain.to_json()})
    return _emit(args, report,
                 f"distance(<G,J3>, <G,J3>^(f^{args.k})) <= 4 (chain verified)")


def cmd_report(args) -> int:
    cfg = _load_cfg(args)
    spec = _load_spec(args)
    result = classify(spec, cfg, power=args.power)
    results = {"classification": result.to_json()}
    cert = result._certificate
    if cert is not None:
        results["m_hat"] = cert.ctx.m_hat
        results["displacement"] = cert.displacement
        if "psi" in spec.maps:
            results["divergence"] = divergence_check(
                cert.ctx, spec.mg.induced_rose_map(spec.maps["psi"]),
                one_edge_splitting(spec.mg, spec.params["splitting_h"]))
    report = make_report("report", {"name": spec.name}, results,
                         verdict=result.verdict)
    return _emit(args, report, f"{spec.name}: {result.verdict} (full report)")


def cmd_fixtures(args) -> int:
    names = fixture_names()
    report = make_report("fixtures", {"name": "catalog"}, {"names": names})
    return _emit(args, report, "\n".join(names))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="freesplit",
        description="outer automorphisms acting on free splittings: "
                    "classification with machine-checkable witnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the trichotomy classifier")
    _common(p, "--config", "--power", "--seg-len", "--horizon")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("w", help="orbit phase of a conjugacy class")
    _common(p, "--config", "--seg-len", "--horizon")
    p.add_argument("--word", required=True, help="edge tokens, e.g. \"A B'\"")
    p.set_defaults(fn=cmd_w)

    p = sub.add_parser("leaf", help="print leaf segments of a lamination")
    _common(p, "--config")
    p.add_argument("--stratum", type=int, default=0)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=cmd_leaf)

    p = sub.add_parser("fills", help="free factor support verdict for classes")
    _common(p)
    p.add_argument("--classes", nargs="+", required=True,
                   help="each class as quoted edge tokens")
    p.set_defaults(fn=cmd_fills)

    p = sub.add_parser("distance", help="verified chain bound for a fixture")
    _common(p, "--config")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("report", help="classification plus tables")
    _common(p, "--config", "--power", "--seg-len", "--horizon")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("fixtures", help="list the fixture catalog")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fixtures)

    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early, as `freesplit fixtures | head -3`
        # does; point stdout at devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (InvalidInput, FixtureInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExhausted, NotApplicable) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
