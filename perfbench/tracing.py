"""In-memory span tracer that instruments the mks package from outside.

Every public function of a layer (a module of ``src/mks``) and the class
methods in ``METHODS`` are wrapped.  A wrapper replaces the original under
every name that any ``mks`` module bound to it, so calls from one layer into
another are seen as well; the program's source is not touched.

A span records its name, start, end, parent span and the operation it
belongs to.  Self time is the span's duration minus the time covered by its
children; times are integer nanoseconds, so self times are exact and never
negative.  Calls made thousands of times per operation (``LEAVES``) get no
span each: their calls and time are summed, and their time still counts as
child time of the enclosing span.

The tracer assumes one thread, which holds while ``MKS_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
import weakref
from collections import defaultdict

LAYERS = (
    "cli", "config", "harness", "scf", "response",
    "density_matrix", "potentials", "smearing", "cell", "io",
)

# (module, class, method, span name)
METHODS = (
    ("cell", "PlaneWaveBasis", "to_grid", "cell.to_grid"),
    ("cell", "PlaneWaveBasis", "from_grid", "cell.from_grid"),
    ("config", "RunConfig", "from_file", "config.from_file"),
    ("density_matrix", "DensityMatrix", "orbitals_on_grid",
     "density_matrix.orbitals_on_grid"),
    ("scf", "Hamiltonian", "apply", "scf.hamiltonian_apply"),
    ("scf", "Hamiltonian", "dense", "scf.hamiltonian_dense"),
    ("response", "ResponseContext", "__init__", "response.context_init"),
    ("response", "ResponseContext", "kernel_potential", "response.kernel_potential"),
)

LEAVES = frozenset({"cell.to_grid", "smearing.fermi_dirac", "response.kernel_potential"})


class Tracer:
    """Spans, aggregated leaf calls and counters of one traced phase."""

    def __init__(self):
        self.on = False
        self.spans = []   # [name, start_ns, end_ns, parent index, self_ns, op]
        self.leaves = defaultdict(lambda: [0, 0])   # name -> [calls, ns]
        self.counters = defaultdict(int)
        self.covered_ns = 0   # time inside top-level spans and leaves
        self.op_ns = 0        # time of the traced operations
        self.n_ops = 0
        self._stack = []      # [span index, child ns]
        self._op = -1
        self._solve_keys = set()
        self._dense_built = weakref.WeakSet()

    # -- operations -------------------------------------------------------

    def begin_op(self, index):
        self._op = index
        self._solve_keys = set()
        self._dense_built = weakref.WeakSet()
        self.on = True

    def end_op(self):
        self.on = False
        self.n_ops += 1
        self.counters["harness.distinct_solves"] += len(self._solve_keys)

    # -- recording --------------------------------------------------------

    def _close(self, duration):
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.covered_ns += duration

    def span(self, name, fn, args, kwargs):
        record = [name, 0, 0, self._stack[-1][0] if self._stack else -1, 0, self._op]
        frame = [len(self.spans), 0]
        self.spans.append(record)
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            record[1], record[2], record[4] = start, end, end - start - frame[1]
            self._close(end - start)

    def leaf(self, name, fn, args, kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            agg = self.leaves[name]
            agg[0] += 1
            agg[1] += duration
            self._close(duration)

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, self_ns] over spans and leaves."""
        out = defaultdict(lambda: [0, 0])
        for name, _, _, _, self_ns, _ in self.spans:
            out[name][0] += 1
            out[name][1] += self_ns
        for name, (calls, ns) in self.leaves.items():
            out[name][0] += calls
            out[name][1] += ns
        return out

    def layer_self_ns(self):
        shares = dict.fromkeys(LAYERS, 0)
        for name, (_, ns) in self.totals().items():
            shares[name.split(".", 1)[0]] += ns
        return shares

    def write(self, path):
        """Write every span and leaf aggregate as gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "self_ns", "op"],
            "names": names,
            "spans": [[index[s[0]]] + s[1:] for s in self.spans],
            "leaves": {k: {"calls": v[0], "ns": v[1]} for k, v in self.leaves.items()},
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- observers: counters taken where the work happens ---------------------

def _observe_run_scf(tracer, bound, result):
    tracer.counters["scf.iterations"] += result.iterations


def _observe_run_single(tracer, bound, result):
    config = bound.arguments["config"]
    cutoff = bound.arguments["cutoff"] or config.cutoff
    beta = bound.arguments["beta"]
    beta = config.beta if beta is None else beta
    tighten = bound.arguments["tighten"]
    tracer._solve_keys.add(
        (config.config_hash(), float(cutoff), float(beta), float(tighten))
    )


def _observe_dense_bare(tracer, bound, result):
    ctx = bound.arguments["ctx"]
    if ctx not in tracer._dense_built:
        tracer._dense_built.add(ctx)
        tracer.counters["response.dense_bytes"] += 8 * result.shape[0] * result.shape[1]


OBSERVERS = {
    "scf.run_scf": _observe_run_scf,
    "harness.run_single": _observe_run_single,
    "response.dense_bare_matrix": _observe_dense_bare,
}


def _wrap(tracer, name, fn):
    record = tracer.leaf if name in LEAVES else tracer.span
    observer = OBSERVERS.get(name)
    signature = inspect.signature(fn) if observer else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        result = record(name, fn, args, kwargs)
        if observer is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observer(tracer, bound, result)
        return result

    return wrapper


def instrument(tracer):
    """Wrap the layers' public functions and ``METHODS``; returns an undo."""
    modules = {layer: importlib.import_module(f"mks.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("mks")] + list(modules.values())
    originals = {}   # id(original function) -> wrapper
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                originals[id(obj)] = _wrap(tracer, f"{layer}.{attr}", obj)
    # scipy's LOBPCG as bound in the scf layer: counts the iterative path
    originals[id(modules["scf"].lobpcg)] = _wrap(
        tracer, "scf.lobpcg", modules["scf"].lobpcg
    )

    undo = []
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                undo.append((namespace, attr, value))
                setattr(namespace, attr, wrapper)

    for layer, cls_name, method, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            replacement = classmethod(_wrap(tracer, name, raw.__func__))
        else:
            replacement = _wrap(tracer, name, raw)
        undo.append((cls, method, raw))
        setattr(cls, method, replacement)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
