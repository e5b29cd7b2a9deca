"""Spans around calls into teachlab's public functions, recorded from outside.

Modules import these functions by name (``from .ncteach import nctd``), so
a wrapper replaces the function in every teachlab module that holds it;
otherwise calls made inside the package (nctd -> decide_order, h_ratio ->
h_max, the CLI handlers -> every kernel) would bypass it.  Spans stay in
memory until the run ends.  A function's self time is the duration of its
spans minus the time covered by the traced spans they directly contain.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

# module -> public functions wrapped in the traced run
TRACED = {
    "classical": ("td_min", "teaching_report", "rtd"),
    "ncteach": ("decide_order", "nctd", "parse_teacher", "serialize_teacher"),
    "johnson": ("h_max",),
    "tournaments": ("random_tournament", "class1", "class2", "recover_tournament",
                    "parse_tournament", "serialize_tournament"),
    "concepts": ("parse_class", "serialize_class"),
    "experiments": ("run_tdmin_experiment", "verify_dim1", "max_class_search"),
    "cli": ("dispatch",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# counts computed from the inputs and outputs seen at the traced boundaries
COUNTS = {
    "rng.draws": "count",               # sum of C(n, 2) over random_tournament calls
    "johnson.h_max.vertices": "count",  # sum of C(n, k) over h_max calls
    "concepts.bytes": "bytes",          # text read by parse_class plus text written by serialize_class
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Installs wrappers on enable() and restores the originals on disable()."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, float, float, int] | None] = []  # (fid, job, start, end, parent)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.refuted = 0
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _hook(self, name: str, args, kwargs, result) -> None:
        if name == "tournaments.random_tournament":
            self.counts["rng.draws"] += comb(_arg(args, kwargs, 0, "n"), 2)
        elif name == "johnson.h_max":
            self.counts["johnson.h_max.vertices"] += comb(_arg(args, kwargs, 0, "n"),
                                                          _arg(args, kwargs, 1, "k"))
        elif name == "concepts.parse_class":
            self.counts["concepts.bytes"] += len(_arg(args, kwargs, 0, "text"))
        elif name == "concepts.serialize_class":
            self.counts["concepts.bytes"] += len(result)
        elif name == "ncteach.decide_order" and result is None:
            self.refuted += 1

    def _wrap(self, fid: int, name: str, fn):
        spans, stack, hook = self.spans, self._stack, self._hook

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (fid, self.job, start, end, parent)
            hook(name, args, kwargs, result)
            return result

        return traced

    def enable(self) -> None:
        import teachlab.cli  # noqa: F401  (the package root does not import it)

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "teachlab" or key.startswith("teachlab."))]
        for fid, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"teachlab.{mod_name}"], fn_name)
            wrapper = self._wrap(fid, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls and self_s per traced function, over every span recorded."""
        child = [0.0] * len(self.spans)
        for fid, _job, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i, (fid, _job, start, end, _parent) in enumerate(self.spans):
            calls[fid] += 1
            self_s[fid] += (end - start) - child[i]
        return {name: {"calls": calls[i], "self_s": self_s[i]} for i, name in enumerate(NAMES)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            for fid, job, start, end, parent in self.spans:
                out.write(f'{{"name": "{NAMES[fid]}", "job": {job}, "start": {start:.9f},'
                          f' "end": {end:.9f}, "parent": {parent}}}\n')
