"""In-memory spans and counters for the traced run.

Spans are recorded from the benchmark's side only: around each call the
runner makes into a layer, and around the package functions and the
``scipy.integrate.quad`` entry point that wrappers replace for the length
of a traced pass (the package looks them up as module attributes at call
time).  Nothing under ``src/`` changes.

A span is the list ``[id, parent, op, layer, name, start, end, quad_calls,
integrand_evals, extra]``.  Every ``scipy.integrate.quad`` call adds one
call and its ``neval`` (from the ``full_output`` info dict the package
asks for) to each span open around it, so the counts are exact and need
no wrapper around the integrand.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

ID, PARENT, OP, LAYER, NAME, START, END, QUAD_CALLS, EVALS, EXTRA = range(10)

#: Package functions wrapped during a traced pass: (module, attribute, layer).
#: ``wignerq.indicators`` holds its own references to the integrate
#: functions, so those are the attributes replaced.
WRAPPED = (
    ("wignerq.indicators", "orbit_volume_qubit", "integrate.quadrature"),
    ("wignerq.indicators", "orbit_volume_qutrit", "integrate.quadrature"),
    ("wignerq.indicators", "qutrit_full_volume", "integrate.quadrature"),
    ("wignerq.indicators", "gauss_legendre_doubling", "integrate.quadrature"),
    ("wignerq.indicators", "sample_hs_spectra", "integrate.sampling"),
    ("wignerq.indicators", "sample_bures_spectra", "integrate.sampling"),
    ("wignerq.indicators", "sample_mcmc_spectra", "integrate.sampling"),
    ("wignerq.indicators", "positive_fraction_iid", "integrate.sampling"),
    ("wignerq.indicators", "positive_fraction_mcmc", "integrate.sampling"),
    ("wignerq.integrate.sampling", "min_pairing_batch", "positivity"),
)


def _describe(out):
    """Rows drawn by a sampler, and the acceptance rate of a chain."""
    if hasattr(out, "acceptance_rate"):
        return {"rows": int(out.flat.shape[0]), "acceptance": float(out.acceptance_rate)}
    shape = getattr(out, "shape", None)
    return {"rows": int(shape[0])} if shape else None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op: str | None = None
        self._restore: list = []

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self.stack[-1][ID] if self.stack else None
        rec = [len(self.spans), parent, self.op, layer, name, time.perf_counter(), None, 0, 0, None]
        self.spans.append(rec)
        self.stack.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, module, attr: str, layer: str):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(layer, attr) as rec:
                out = orig(*args, **kwargs)
                rec[EXTRA] = _describe(out)
            return out

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def _wrap_quad(self, module):
        orig = module.quad

        @functools.wraps(orig)
        def quad(*args, **kwargs):
            with self.span("scipy.integrate.quad", "quad") as rec:
                res = orig(*args, **kwargs)
            info = res[2] if len(res) >= 3 and isinstance(res[2], dict) else {}
            evals = int(info.get("neval", 0))
            for open_span in (*self.stack, rec):
                open_span[QUAD_CALLS] += 1
                open_span[EVALS] += evals
            return res

        module.quad = quad
        self._restore.append((module, "quad", orig))

    def install(self) -> None:
        import importlib

        import scipy.integrate

        self._wrap_quad(scipy.integrate)
        for mod, attr, layer in WRAPPED:
            self._wrap(importlib.import_module(mod), attr, layer)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- queries ------------------------------------------------------------

    def find(self, op: str, name: str | None = None) -> list[list]:
        """Spans of one operation, optionally only those with a given name."""
        return [s for s in self.spans if s[OP] == op and (name is None or s[NAME] == name)]

    def self_times(self, ops: set[str] | None = None) -> dict[str, float]:
        """Seconds per layer not covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for s in self.spans:
            if ops is None or s[OP] in ops:
                out[s[LAYER]] = out.get(s[LAYER], 0.0) + (s[END] - s[START]) - child[s[ID]]
        return out

    def write(self, path: Path) -> None:
        fields = ["id", "parent", "op", "layer", "name", "start", "end", "quad_calls", "integrand_evals", "extra"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))


def duration(span: list) -> float:
    return span[END] - span[START]
