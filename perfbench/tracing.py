"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each named public function of qtensor, in
its own module and in every qtensor or benchmark module that imported
it, with a wrapper.  A timed wrapper keeps a span (name, start, end, parent) in
memory; a counted wrapper only counts calls, for functions too short to
time.  Nothing is written until ``write()`` at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (layer, module, attribute); an attribute "Class.method" patches a method.
TIMED = [
    ("net", "qtensor.net", "run_contract"),
    ("net", "qtensor.net", "parse"),
    ("engine", "qtensor.engine", "self_contract"),
    ("engine", "qtensor.engine", "reduce_full"),
    ("engine", "qtensor.engine", "tensor_product"),
    ("engine", "qtensor.engine", "gauss_sum"),
    ("solve", "qtensor.solve", "kernel_of_hom"),
    ("solve", "qtensor.solve", "solve_hom"),
    ("solve", "qtensor.solve", "smith_normal_form"),
    ("solve", "qtensor.solve", "quotient_by_subgroup"),
    ("functions", "qtensor.functions", "QuadraticFnData.precompose"),
    ("functions", "qtensor.functions", "QuadraticFnData.precompose_affine"),
    ("functions", "qtensor.functions", "LinearFnData.compose_affine"),
    ("coeff", "qtensor.coeff", "quad_fit"),
    ("coeff", "qtensor.coeff", "hom_fit"),
    ("stab", "qtensor.stab", "stab_state"),
    ("stab", "qtensor.stab", "stab_projector"),
    ("stab", "qtensor.stab", "clifford_to_tensor"),
    ("fermion", "qtensor.fermion", "fermion_contract"),
    ("fermion", "qtensor.fermion", "pfaffian"),
    ("fermion", "qtensor.fermion", "fermion_tensor_product"),
]
COUNTED = [
    ("engine", "qtensor.engine", "reduce_invertible"),
    ("engine", "qtensor.engine", "reduce_zero"),
    ("engine", "qtensor.engine", "reduce_real"),
    ("coeff", "qtensor.coeff", "hom_group"),
    ("coeff", "qtensor.coeff", "quad_group"),
    ("groups", "qtensor.groups", "Zk"),
]
SELF_LAYERS = ["net", "engine", "solve", "stab", "fermion"]
# benchmark modules that call into qtensor and are patched like its own
CALLERS = ("workloads",)


def _short(layer: str, attr: str) -> str:
    return f"{layer}.{attr.split('.')[-1]}"


def metric_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer, _, attr in TIMED:
        base = _short(layer, attr)
        names += [f"{base}.calls", f"{base}.s"]
        if base == "engine.reduce_full":
            names.append("engine.reduce_full.max_rank")
    names += [f"{_short(layer, attr)}.calls" for layer, _, attr in COUNTED]
    names += [f"{layer}.self_s" for layer in SELF_LAYERS]
    return names


class Tracer:
    def __init__(self):
        self.names: List[str] = [_short(l, a) for l, _, a in TIMED]
        self.layers: List[str] = [l for l, _, _ in TIMED]
        self.spans: List[Optional[Tuple[int, int, int, int]]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {_short(l, a): 0 for l, _, a in COUNTED}
        self.max_rank = 0
        self.on = False

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fid: int, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack
        perf = time.perf_counter_ns
        rank = fid == self.names.index("engine.reduce_full")

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if rank:
                self.max_rank = max(self.max_rank, len(args[0].E))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (fid, t0, perf(), parent)
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for fid, (layer, mod, attr) in enumerate(TIMED):
            self._patch(mod, attr, lambda fn, fid=fid: self._timed(fid, fn))
        for layer, mod, attr in COUNTED:
            name = _short(layer, attr)
            self._patch(mod, attr, lambda fn, name=name: self._counted(name, fn))

    def _patch(self, mod: str, attr: str, make: Callable) -> None:
        owner = sys.modules[mod]
        if "." in attr:
            cls, meth = attr.split(".")
            owner = getattr(owner, cls)
            attr = meth
        orig = getattr(owner, attr)
        wrapped = make(orig)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [m for name, m in list(sys.modules.items())
                        if (name.startswith("qtensor") or name in CALLERS)
                        and m is not owner and getattr(m, attr, None) is orig]
        for h in holders:
            setattr(h, attr, wrapped)

    # -- per-pass aggregation -----------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        for k in self.counts:
            self.counts[k] = 0
        self.max_rank = 0

    def summary(self) -> Dict[str, float]:
        """Calls, inclusive and self seconds of the spans kept since reset.

        Inclusive time counts only the outermost span of a recursive
        function; self time of a layer is its spans' durations minus the
        durations of their direct child spans.
        """
        n = len(self.names)
        calls = [0] * n
        incl = [0] * n
        child = [0] * len(self.spans)
        for sp in self.spans:
            fid, t0, t1, parent = sp
            calls[fid] += 1
            if parent >= 0:
                child[parent] += t1 - t0
            # a span is outermost for its function unless an ancestor has the same fid
            p, inner = parent, False
            while p >= 0:
                if self.spans[p][0] == fid:
                    inner = True
                    break
                p = self.spans[p][3]
            if not inner:
                incl[fid] += t1 - t0
        self_ns = {layer: 0 for layer in SELF_LAYERS}
        for idx, (fid, t0, t1, _) in enumerate(self.spans):
            layer = self.layers[fid]
            if layer in self_ns:
                self_ns[layer] += (t1 - t0) - child[idx]
        out: Dict[str, float] = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.s"] = incl[fid] / 1e9
        out["engine.reduce_full.max_rank"] = self.max_rank
        out.update({f"{k}.calls": v for k, v in self.counts.items()})
        out.update({f"{layer}.self_s": v / 1e9 for layer, v in self_ns.items()})
        return out

    def dump_spans(self) -> List[list]:
        return [[self.names[fid], t0, t1, parent] for fid, t0, t1, parent in self.spans]


def write(path: str, workload: str, seed: int, metrics: Dict[str, float],
          spans: List[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "per_pass": metrics,
                   "spans_of_first_pass": spans}, fh)
