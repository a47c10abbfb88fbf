"""In-memory span tracer for the netdual benchmark.

Spans are recorded by wrapping public functions and methods of the
library where ``netdual.harness`` looks them up: module-level names in
``harness`` (so calls made inside ``sweep`` and ``finalize`` are seen) and
methods on the engine, environment, schedule and loss classes. Nothing
under ``src/`` is modified: the wrappers are installed around one
operation at a time and removed after it.

A span is (name, start, end, parent span, operation id). A layer's self
time is its span durations minus the part its child spans cover.
"""

from array import array
from time import perf_counter

import numpy as np

# (metric prefix, owner in netdual.harness's namespace, attribute names).
# Owners that are classes are patched on the class; the string "harness"
# means a module-level name in netdual.harness. An attribute that no owner
# defines is listed in ``Tracer.missing``, and a run with a missing layer
# is not correct: a renamed or removed layer must not read as a 0 s layer.
LAYERS = (
    ("harness.simulate", "harness", ("simulate",)),
    ("harness.finalize", "harness", ("finalize",)),
    ("harness.sweep", "harness", ("sweep",)),
    ("harness.write_csv", "harness", ("write_trace_csv", "write_sweep_csv")),
    ("harness.env", "SensingEnvironment", ("next_objective",)),
    ("engine.local_updates", "ENGINES", ("local_updates",)),
    ("engine.step", "ENGINES", ("step",)),
    (
        "engine.diag",
        "ENGINES",
        (
            "disagreement",
            "disagreement_squared",
            "mean_field_residual",
            "weight_conservation_residual",
        ),
    ),
    ("objectives.gradient", "QuadraticLoss", ("gradient",)),
    ("objectives.value", "QuadraticLoss", ("value",)),
    ("topology.matrix_at", "DigraphSchedule", ("matrix_at",)),
    ("topology.validate_b_strong", "harness", ("validate_b_strong",)),
    ("topology.contraction_constants", "harness", ("contraction_constants",)),
    ("regret.offline_comparator", "harness", ("offline_comparator",)),
    ("regret.network_regret", "harness", ("network_regret",)),
    ("regret.decomposition_terms", "harness", ("decomposition_terms",)),
)

# The untraced run wraps only these top-level calls, to read the sweep's
# simulate time, the comparator's iteration count and the prefix traces
# from outside: a few spans per operation, against seconds of work.
PROBE_LAYERS = tuple(
    layer
    for layer in LAYERS
    if layer[0] in ("harness.simulate", "harness.finalize", "regret.offline_comparator")
)

ENGINE_CLASSES = ("CirculationEngine", "PushSumEngine")
OP = "bench.op"


def _owners(harness, owner):
    if owner == "harness":
        return [harness]
    names = ENGINE_CLASSES if owner == "ENGINES" else (owner,)
    return [getattr(harness, n) for n in names if hasattr(harness, n)]


class Tracer:
    """Records spans while installed; ``uninstall`` puts the originals back."""

    def __init__(self, harness, layers=LAYERS, clock=perf_counter):
        self.clock = clock
        self.names = [OP]
        self._ids = {OP: 0}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.op = -1
        self.results = []  # (name, return value, start, end) of harness-level calls
        self._targets = []  # (owner object, attribute, original, wrapper)
        self.missing = []  # "layer: owner.attribute" that nothing defines
        for name, owner, attrs in layers:
            objs = _owners(harness, owner)
            for attr in attrs:
                found = False
                for obj in objs:
                    # only attributes the owner defines itself, so a method
                    # inherited by two engines is not wrapped twice
                    fn = vars(obj).get(attr)
                    if fn is not None:
                        found = True
                        wrapper = self._wrap(name, fn, keep=owner == "harness")
                        self._targets.append((obj, attr, fn, wrapper))
                if not found:
                    self.missing.append(f"{name}: {owner}.{attr}")

    def install(self):
        for obj, attr, _, wrapper in self._targets:
            setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, fn, _ in reversed(self._targets):
            setattr(obj, attr, fn)

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name, fn, keep):
        nid = self._name(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            tracer.start[idx] = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = tracer.clock()
                tracer._stack.pop()
            if keep:
                tracer.results.append((name, out, tracer.start[idx], tracer.end[idx]))
            return out

        traced.__wrapped__ = fn
        return traced

    def begin_op(self):
        """Open the root span of one benchmark operation."""
        self.op += 1
        self.results = []
        idx = self._open(0)
        self.start[idx] = self.clock()
        return idx

    def end_op(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def arrays(self):
        # copies, so the arrays can still grow afterwards
        return tuple(
            np.frombuffer(a, dtype=np.float64 if a.typecode == "d" else np.int32).copy()
            for a in (self.name_id, self.parent, self.op_id, self.start, self.end)
        )

    def per_op(self):
        """For each operation: {name: (calls, self seconds)}; the root span's
        self time is the part of the operation no layer span covers."""
        nid, parent, op, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        out = []
        for k in range(self.op + 1):
            mask = op == k
            calls = np.bincount(nid[mask], minlength=len(self.names))
            selfs = np.bincount(nid[mask], weights=self_s[mask], minlength=len(self.names))
            out.append(
                {
                    name: (int(calls[i]), float(selfs[i]))
                    for i, name in enumerate(self.names)
                }
            )
        return out

    def save(self, path):
        nid, parent, op, start, end = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=parent,
            op=op,
            start=start,
            end=end,
        )
