"""Span tracer that instruments castleqec from outside the package.

install() replaces each instrumented public callable with a timing wrapper in
every castleqec.* namespace that holds it, so calls made through
`from .x import y` names are seen too; methods are patched on their class.
A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans add up to the time the outermost spans
cover.  Spans are aggregated per name as they close.
"""

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# span name -> callables, as "module:qualname" under the castleqec package
SPANS = {
    "kernels.enumerate": ("kernels:enumerate_weights",),
    "codes.weights": (
        "codes:LinearCode.weights",
        "codes:LinearCode.weight_distribution",
        "codes:LinearCode.min_weight",
        "codes:relative_min_weight",
    ),
    "codes.macwilliams": ("codes:macwilliams_coefficient",),
    "codes.dual": ("codes:LinearCode.dual",),
    "codes.contains": ("codes:LinearCode.contains_code",),
    "linalg.rref": ("linalg:rref",),
    "linalg.kernel_basis": ("linalg:kernel_basis",),
    "linalg.matmul": ("linalg:matmul",),
    "linalg.reduce_row": ("linalg:reduce_row",),
    "linalg.insert": ("linalg:RREFAccumulator.insert",),
    "agcodes.CodeSequence": ("agcodes:CodeSequence.__init__",),
    "agcodes.certify_duality": ("agcodes:certify_duality",),
    "agcodes.bounds": ("agcodes:order_bound", "agcodes:goppa_bound", "agcodes:dual_distance_bound"),
    "agcodes.trace_code": ("agcodes:trace_code", "agcodes:trace_rows"),
    "fields.GF.build": ("fields:Field.__init__",),
    "fields.trace_vec": ("fields:Embedding.trace_vec",),
    "curves.curve": (
        "curves:sep_variable_curve",
        "curves:hyperelliptic_even",
        "curves:hyperelliptic_odd",
        "curves:suzuki_curve",
        "curves:norm_trace_quotient",
        "curves:curve_from_json",
    ),
    "curves.EvaluationSet": ("curves:EvaluationSet.__init__",),
    "curves.basis_rows": ("curves:EvaluationSet.basis_rows",),
    "semigroups": tuple(
        f"semigroups:NumericalSemigroup.{name}"
        for name in (
            "__init__", "contains", "elements_up_to", "ell", "rho", "dimension_set", "nu", "order_bound",
        )
    ),
    "quantum.css": ("quantum:css_nested", "quantum:css_self_orthogonal", "quantum:css_hermitian"),
    "quantum.gv": ("quantum:gv_status", "quantum:gv_terms"),
    "cli.load": ("cli:_load_eval_set",),
    "cli.emit": ("cli:emit_rows",),
    # inclusive per-target time; the span is renamed "repro.<target>" per call
    "repro": ("repro:run_target",),
}


class Tracer:
    """Aggregated spans (name -> [calls, total_s, self_s]) plus counters."""

    def __init__(self):
        self.spans = {}
        self.counters = Counter()
        self.matrices = set()  # distinct (q, shape, bytes) given to the kernel
        self._open = []  # child time covered so far, one entry per open span

    def call(self, name, fn, args, kwargs):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._open.pop()
            if self._open:
                self._open[-1] += duration
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - children

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[1]


# -- counters read from arguments and results ----------------------------------


def _count_enumeration(tracer, args, result):
    field, G = args[0], np.asarray(args[1], dtype=np.uint16)
    tracer.counters["kernels.words"] += field.order ** G.shape[0]
    tracer.matrices.add((field.order, G.shape, G.tobytes()))


def _count_weights_mode(tracer, args, result):
    mode = "refused" if result is None else result.mode
    tracer.counters[f"codes.weights.{mode}"] += 1


def _count_rref_entries(tracer, args, result):
    tracer.counters["linalg.rref.entries"] += int(np.size(args[1]))


def _count_matmul_ops(tracer, args, result):
    A, B = np.shape(args[1]), np.shape(args[2])
    tracer.counters["linalg.matmul.ops"] += A[0] * A[-1] * B[-1]


COUNTERS = {
    "kernels:enumerate_weights": _count_enumeration,
    "codes:LinearCode.weights": _count_weights_mode,
    "linalg:rref": _count_rref_entries,
    "linalg:matmul": _count_matmul_ops,
}


def _wrap(tracer, name, target, fn):
    count = COUNTERS.get(target)
    per_target = name == "repro"

    def traced(*args, **kwargs):
        span = f"repro.{args[0]}" if per_target else name
        result = tracer.call(span, fn, args, kwargs)
        if count is not None:
            count(tracer, args, result)
        return result

    return functools.wraps(fn)(traced)


def install(tracer):
    """Patch every instrumented callable; returns a function that undoes it."""
    undo = []
    namespaces = [
        mod for key, mod in sys.modules.items() if key == "castleqec" or key.startswith("castleqec.")
    ]
    for name, targets in SPANS.items():
        for target in targets:
            module_name, qualname = target.split(":")
            module = importlib.import_module(f"castleqec.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, _wrap(tracer, name, target, original))
                undo.append((cls, attr, original))
                continue
            original = getattr(module, qualname)
            wrapper = _wrap(tracer, name, target, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        undo.append((namespace, key, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics ------------------------------------------------------------

CALLS = (
    "kernels.enumerate",
    "codes.macwilliams",
    "codes.dual",
    "codes.contains",
    "linalg.rref",
    "linalg.kernel_basis",
    "linalg.matmul",
    "linalg.reduce_row",
    "linalg.insert",
    "fields.trace_vec",
    "curves.basis_rows",
    "quantum.css",
)
# the spans whose self times partition a traced pass; what they leave is other.self_s
SELF = (
    "kernels.enumerate",
    "codes.weights",
    "codes.macwilliams",
    "codes.dual",
    "codes.contains",
    "linalg.rref",
    "linalg.kernel_basis",
    "linalg.matmul",
    "linalg.reduce_row",
    "linalg.insert",
    "agcodes.CodeSequence",
    "agcodes.certify_duality",
    "agcodes.bounds",
    "agcodes.trace_code",
    "fields.trace_vec",
    "curves.curve",
    "curves.EvaluationSet",
    "curves.basis_rows",
    "semigroups",
    "quantum.css",
    "quantum.gv",
    "cli.load",
    "cli.emit",
)
COUNTS = (
    "kernels.words",
    "codes.weights.direct",
    "codes.weights.mac",
    "codes.weights.refused",
    "linalg.rref.entries",
    "linalg.matmul.ops",
)


def per_layer_specs(repro_targets):
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{span}.calls", "count", "lower") for span in CALLS]
    specs += [(f"{span}.self_s", "s", "lower") for span in SELF]
    specs += [(name, "count", "lower") for name in COUNTS]
    specs += [
        ("kernels.words_per_s", "1/s", "higher"),
        ("kernels.distinct_frac", "ratio", "higher"),
        ("fields.GF.build_s", "s", "lower"),
    ]
    specs += [(f"repro.{target}.s", "s", "lower") for target in repro_targets]
    specs += [("other.self_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return specs


def layer_values(tracer, wall_s):
    """Per-layer values of one traced pass that took wall_s."""
    values = {f"{span}.calls": tracer.calls(span) for span in CALLS}
    values.update({f"{span}.self_s": tracer.self_s(span) for span in SELF})
    values.update({name: tracer.counters[name] for name in COUNTS})
    calls, enum_s = tracer.calls("kernels.enumerate"), tracer.self_s("kernels.enumerate")
    values["kernels.words_per_s"] = tracer.counters["kernels.words"] / enum_s if enum_s else 0.0
    values["kernels.distinct_frac"] = len(tracer.matrices) / calls if calls else 0.0
    values["other.self_s"] = wall_s - sum(tracer.self_s(span) for span in SELF)
    for name, (_, total_s, _) in tracer.spans.items():
        if name.startswith("repro."):
            values[f"{name}.s"] = total_s
    return values
