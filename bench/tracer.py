"""Spans and call counts recorded around senlab's public functions.

The tracer wraps functions and methods from outside the package: it replaces
module attributes (in every loaded senlab module that holds the same object)
and class attributes, and restores them on uninstall.  Each wrapped call
records a span (id, parent id, task id, layer, start, end); PadicScalar
arithmetic is only counted, because a span per scalar operation would swamp
the run.  Only calls made inside a benchmark task (or set-up) are recorded,
not those the checks make.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer -> functions ("module:attr") or methods ("module:Class.attr")
SPAN_LAYERS = {
    "padic.series": ["senlab.padic:padic_exp", "senlab.padic:padic_log"],
    "field.mul": ["senlab.field:FieldElement.__mul__",
                  "senlab.field:FieldElement.__rmul__"],
    "field.div": ["senlab.field:FieldElement.__truediv__"],
    "field.trace": ["senlab.field:trace_to_Qp"],
    "field.build": ["senlab.field:build_field"],
    "field.embed": ["senlab.field:FieldEmbedding.__init__",
                    "senlab.field:FieldEmbedding.__call__"],
    "linalg.mat_mul": ["senlab.linalg:mat_mul"],
    "linalg.elim": ["senlab.linalg:row_reduce", "senlab.linalg:solve",
                    "senlab.linalg:invert", "senlab.linalg:rank",
                    "senlab.linalg:kernel_basis", "senlab.linalg:det"],
    "linalg.charpoly": ["senlab.linalg:charpoly_berkowitz"],
    "dpseries.solve_theta": ["senlab.dpseries:solve_theta"],
    "dpseries.dp_mul": ["senlab.dpseries:dp_mul"],
    "dpseries.coaction": ["senlab.dpseries:coaction"],
    "dpseries.dp_compose": ["senlab.dpseries:dp_compose"],
    "senmod.nearly_ht_test": ["senlab.senmod:nearly_ht_test"],
    "senmod.char_poly": ["senlab.senmod:char_poly"],
    "senmod.cohomology": ["senlab.senmod:cohomology"],
    "senmod.operator_series": ["senlab.senmod:operator_series"],
    "gamma.build_level": ["senlab.gamma:build_level"],
    "gamma.rho_bound": ["senlab.gamma:rho_bound"],
    "gamma.g_minus_one": ["senlab.gamma:g_minus_one"],
    "gamma.contraction_report": ["senlab.gamma:TwistedOperator.contraction_report"],
    "gamma.neumann_invert": ["senlab.gamma:neumann_invert"],
    "gamma.dense_solve": ["senlab.gamma:dense_solve"],
    "picard.boundary": ["senlab.picard:boundary"],
    "picard.kernel_lattice": ["senlab.picard:kernel_lattice"],
    "picard.witness_of_order": ["senlab.picard:witness_of_order"],
    "jsonio.decode": ["senlab.jsonio:decode_fraction", "senlab.jsonio:decode_scalar",
                      "senlab.jsonio:decode_field_spec", "senlab.jsonio:decode_element",
                      "senlab.jsonio:decode_dpseries", "senlab.jsonio:decode_theta_matrix",
                      "senlab.jsonio:decode_scalar_vector"],
    "jsonio.encode": ["senlab.jsonio:encode_fraction", "senlab.jsonio:encode_scalar",
                      "senlab.jsonio:encode_poly", "senlab.jsonio:encode_field_spec",
                      "senlab.jsonio:encode_element", "senlab.jsonio:encode_dpseries",
                      "senlab.jsonio:encode_matrix", "senlab.jsonio:encode_polygon",
                      "senlab.jsonio:encode_classifier_report",
                      "senlab.jsonio:encode_boundary"],
}

COUNTED_LAYERS = {
    "padic.scalar_ops": ["senlab.padic:PadicScalar." + name for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__neg__")],
}


def _resolve(target):
    mod_name, attr = target.split(":")
    owner = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, task, layer, t0, t1)
        self.counts = defaultdict(int)
        self._stack = []
        self._task = -1
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _span_wrapper(self, layer, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer._task < 0:        # a check's own call, outside every task
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            counts[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, tracer._task, layer, t0, t1)

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", layer)
        return wrapped

    def _count_wrapper(self, layer, fn):
        counts = self.counts
        tracer = self

        def wrapped(*args):
            if tracer._task >= 0:
                counts[layer] += 1
            return fn(*args)

        wrapped.__wrapped__ = fn
        return wrapped

    def task(self, name):
        """Context for one benchmark task: a root span every layer span joins."""
        return _TaskSpan(self, name)

    # -- installation --------------------------------------------------------

    def install(self):
        for layers, make in ((SPAN_LAYERS, self._span_wrapper),
                             (COUNTED_LAYERS, self._count_wrapper)):
            for layer, targets in layers.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = owner.__dict__[attr]
                    wrapper = make(layer, original)
                    self._replace(owner, attr, original, wrapper)
                    if isinstance(owner, type):
                        continue
                    # names imported with "from .x import f" elsewhere in senlab
                    for name, mod in list(sys.modules.items()):
                        if mod is owner or not name.startswith("senlab"):
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def self_times_ms(self):
        """Per-layer self time: span duration minus its direct children's."""
        child = defaultdict(float)
        for sid, parent, _task, _layer, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, _parent, _task, layer, t0, t1 in self.spans:
            out[layer] += (t1 - t0 - child[sid]) * 1000.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,task,layer,start_s,end_s\n")
            for sid, parent, task, layer, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{task},{layer},{t0:.9f},{t1:.9f}\n")


class _TaskSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        self.parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append(None)
        tr._stack.append(self.sid)
        tr._task = self.sid
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter()
        tr._stack.pop()
        tr.spans[self.sid] = (self.sid, self.parent, self.sid, "task." + self.name,
                              self.t0, t1)
        tr._task = -1
        return False
