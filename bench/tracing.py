"""Span tracing of freesplit's public functions, installed from outside.

``Tracer.install`` replaces every binding of each listed function in every
loaded ``freesplit`` module (the home module, modules that imported it by
name, and the package's re-exports) with one timing wrapper per function.
Each call records a span (name, start, end, parent) in memory; counters
derived from arguments and results are recorded at the same boundary.
``Tracer.uninstall`` puts every original binding back.  The library itself
is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Public functions timed per module, by home module.
TRACED = {
    "words": ("reduce_word", "cyclic_reduce", "canonical_cyclic"),
    "automorphisms": ("apply_map", "compose_maps", "invert_map",
                      "outer_equal"),
    "graphs": ("strata", "compose", "map_path"),
    "factors": ("fold", "enumerate_classes"),
    "whitehead": ("whitehead_minimize", "fills", "free_factor_support"),
    "laminations": ("lamination_approx", "lamination_fills",
                    "laminations_jointly_fill"),
    "pairs": ("validate_pair", "remark_pair", "pair_relation_check"),
    "wproj": ("build_context", "estimate_M", "default_m_samples",
              "displacement_table", "divergence_check", "translate_class",
              "W_of_ffs", "w_of"),
    "classify": ("classify", "periodic_vertex_witness",
                 "bounded_path_witness"),
    "cli": ("main",),
    "reports": ("dump_report",),
}

# Unknown stages of classify, keyed by the stage text before any ":".
UNKNOWN_STAGES = ("periodic_vertex_witness", "lamination_fills",
                  "laminations_jointly_fill", "build_context",
                  "no_coordinate_splitting", "displacement_witness", "other")


def _input_letters(args, result):
    return {"letters": len(args[0])}


def _unknown_stage(stage: str | None) -> str:
    key = (stage or "").split(":", 1)[0].strip().replace(" ", "_")
    return key if key in UNKNOWN_STAGES else "other"


W_STATUS = {"Defined": "defined", "NotDefined": "not_defined",
            "BudgetExhausted": "budget"}

# Counters per function: (names, (args, result) -> {name: increment}).
COUNTERS = {
    "words.reduce_word": (("letters",), _input_letters),
    "words.cyclic_reduce": (("letters",), _input_letters),
    "words.canonical_cyclic": (("letters",), _input_letters),
    "automorphisms.apply_map": (
        ("letters_out",), lambda a, r: {"letters_out": len(r)}),
    "factors.enumerate_classes": (
        ("classes_out",), lambda a, r: {"classes_out": len(r)}),
    "whitehead.whitehead_minimize": (
        ("moves",), lambda a, r: {"moves": len(r[2])}),
    "whitehead.fills": (
        ("verdict_unknown",),
        lambda a, r: {"verdict_unknown": int(r.kind == "Unknown")}),
    "wproj.W_of_ffs": (
        ("candidates",), lambda a, r: {"candidates": r.n_candidates}),
    "wproj.w_of": (tuple(W_STATUS.values()),
                   lambda a, r: {W_STATUS[r.status]: 1}),
    "classify.classify": (
        tuple(f"unknown.{s}" for s in UNKNOWN_STAGES),
        lambda a, r: ({f"unknown.{_unknown_stage(r.stage)}": 1}
                      if r.verdict == "Unknown" else {})),
}


def metric_names() -> list[str]:
    """Every per-function metric the tracer reports, in a fixed order."""
    names = []
    for mod, funcs in TRACED.items():
        for fn in funcs:
            key = f"{mod}.{fn}"
            names += [f"{key}.calls", f"{key}.self_s"]
            names += [f"{key}.{c}" for c in COUNTERS.get(key, ((),))[0]]
    return names


def library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "freesplit"
                                  or name.startswith("freesplit."))]


class Tracer:
    """Spans and counters for the functions in ``TRACED``.

    Spans live in four parallel lists (name index, start, end, parent
    index) and are aggregated by ``summary`` after the traced run.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # spans ------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_index: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a traced call tree."""
        idx = self.open(self._name_index(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, key: str, fn):
        ni = self._name_index(key)
        count = COUNTERS.get(key, (None, None))[1]
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(ni)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                for c, v in count(args, result).items():
                    counters[f"{key}.{c}"] = counters.get(f"{key}.{c}", 0) + v
            return result

        return traced

    # install / uninstall ---------------------------------------------

    def install(self):
        """Wrap every binding of every traced function in freesplit."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__: m for m in library_modules()}
        wrappers = {}
        for short, funcs in TRACED.items():
            home = mods[f"freesplit.{short}"]
            for fn in funcs:
                orig = getattr(home, fn)
                wrappers[id(orig)] = (orig, self._wrap(f"{short}.{fn}", orig))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # aggregation ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self time per function, plus the counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = {name: 0 for name in metric_names()}
        for i in range(n):
            name = self.names[self.name_of[i]]
            if f"{name}.calls" not in out:
                continue  # spans the benchmark opened itself
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur[i] - child[i]
        for key, v in self.counters.items():
            if key in out:
                out[key] += v
        return out

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [(self.names[self.name_of[i]], self.start[i], self.end[i],
                 self.parent[i]) for i in range(len(self.start))]
