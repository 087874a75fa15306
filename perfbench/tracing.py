"""Span tracing of the library's layers, installed from outside the package.

Every public function of each layer module (its `__all__`, classes and the
per-term scalar helpers excepted) is wrapped where it is bound: in its own
module and in every qbinomial module that imported it by name, since
`from .qcalc import e_q` makes a second binding that patching qcalc alone
would miss. Spans (id, parent id, request id, name, start, end) stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

from qbinomial.solvers import RESIDUAL_TARGET

LAYERS = ("qcalc", "distributions", "asymptotics", "solvers", "metrics", "cli")
SKIP = {"sigmoid", "softplus", "np_sigmoid"}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, request, name, start, end)
        self.counts = defaultdict(float)
        self._stack = [0]
        self._next = 1
        self.request = 0
        self._patched = []  # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[f"qbinomial.{name}"] for name in LAYERS}
        modules["__init__"] = sys.modules["qbinomial"]
        for layer in LAYERS:
            home = modules[layer]
            for attr in getattr(home, "__all__", ()):
                fn = getattr(home, attr)
                if attr in SKIP or not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod in modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)
                            self._patched.append((mod, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, parent, self.request, name, start, end))
            if hook:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: duration minus the time its child spans cover."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            child[parent] += end - start
        out = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def calls(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[3]] += 1
        return out

    def nested_calls(self, inner: str, outer: str) -> int:
        """Number of `inner` spans with an `outer` span among their ancestors."""
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        parents = {sid: parent for sid, parent, *_ in self.spans}
        hits = 0
        for sid, name in names.items():
            if name != inner:
                continue
            p = parents[sid]
            while p:
                if names.get(p) == outer:
                    hits += 1
                    break
                p = parents.get(p, 0)
        return hits

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")


def _size(args, kwargs) -> int:
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1 if size is None else int(size)


def _kb_table(counts, args, kwargs, table):
    counts["distributions.kb_table.entries"] += table.probs.size
    counts["distributions.kb_table.useful"] += int((table.probs > 1e-300).sum())


def _kb_sample(counts, args, kwargs, result):
    counts["distributions.kb_sample.draws"] += _size(args, kwargs)


def _inversion(counts, args, kwargs, result):
    counts["distributions.inversion.draws"] += _size(args, kwargs)


def _theta_for_mean(counts, args, kwargs, result):
    counts["solvers.theta_for_mean.iterations"] += result.iterations
    counts["solvers.residual_miss"] += not result.residual <= RESIDUAL_TARGET


def _theta_limit(counts, args, kwargs, result):
    counts["solvers.residual_miss"] += not result.residual <= RESIDUAL_TARGET


def _sweep(counts, args, kwargs, report):
    counts["metrics.rows"] += len(report.rows)


def _cli_main(counts, args, kwargs, code):
    counts["cli.nonzero_exit"] += code != 0


_HOOKS = {
    "distributions.kb_table": _kb_table,
    "distributions.kb_sample": _kb_sample,
    "distributions.sample_by_inversion": _inversion,
    "solvers.theta_for_mean": _theta_for_mean,
    "solvers.theta_limit_for_mean": _theta_limit,
    "metrics.convergence_sweep": _sweep,
    "cli.main": _cli_main,
}
