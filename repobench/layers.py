"""Per-layer host-time split for the traced run.

The traced run executes the workload under :mod:`cProfile`, which times
every function call. A layer's self time is the time spent inside
functions of that layer's modules, with the calls it makes into other
layers taken out — exactly what cProfile's per-function ``tottime``
sums to. Functions outside the program (the standard library and
built-ins such as ``heapq.heappush``) have no layer of their own: their
time goes to the layers that called them, split by the caller edges
cProfile records.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: Layers, keyed by module path under ``src/repro``. The first matching
#: prefix wins; modules listed nowhere count as ``other``.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("gpu/sim.py", "gpu.sim"),
    ("gpu/events.py", "gpu.sim"),
    ("gpu/clock.py", "gpu.sim"),
    ("gpu/calendar.py", "gpu.sim"),
    ("gpu/cta.py", "gpu.cta"),
    ("gpu/grid.py", "gpu.cta"),
    ("gpu/kernel.py", "gpu.cta"),
    ("gpu/macro.py", "gpu.cta"),
    ("gpu/memory.py", "gpu.cta"),
    ("gpu/gpu.py", "gpu.dispatch"),
    ("gpu/sm.py", "gpu.dispatch"),
    ("gpu/occupancy.py", "gpu.dispatch"),
    ("gpu/mps.py", "gpu.dispatch"),
    ("gpu/stream.py", "gpu.dispatch"),
    ("runtime/", "runtime"),
    ("core/", "runtime"),
    ("baselines/", "runtime"),
    ("serving/", "serving"),
    ("fleet/", "fleet"),
    ("validate/", "validate"),
)

LAYERS = (
    "gpu.sim", "gpu.cta", "gpu.dispatch", "runtime", "serving", "fleet",
    "validate", "other",
)

Func = Tuple[str, int, str]


def layer_of_file(path: str, src_root: str) -> str:
    """The layer owning source file ``path``; ``""`` for files outside
    the program (their time belongs to their callers)."""
    pkg = os.path.join(src_root, "repro") + os.sep
    if not path.startswith(pkg):
        return ""
    rel = path[len(pkg):].replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


class LayerSplit:
    """Self time per layer plus cross-layer call counts, from one
    :class:`pstats.Stats`-style table ``{func: (cc, nc, tt, ct,
    callers)}``."""

    def __init__(self, stats: Dict[Func, tuple], src_root: str):
        self._stats = stats
        self._own = {
            func: layer_of_file(func[0], src_root) for func in stats
        }
        self._share: Dict[Func, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for func, (_, _, tt, _, _) in stats.items():
            for layer, frac in self._shares(func, set()).items():
                self.self_s[layer] += tt * frac

    def _shares(self, func: Func, visiting: set) -> Dict[str, float]:
        """How ``func``'s own time divides between layers."""
        own = self._own.get(func, "")
        if own:
            return {own: 1.0}
        if func in self._share:
            return self._share[func]
        entry = self._stats.get(func)
        callers = entry[4] if entry else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if func in visiting or not callers:
            return {"other": 1.0}
        if total <= 0.0:
            weights = {c: 1.0 for c in callers}
            total = float(len(callers))
        visiting.add(func)
        out: Dict[str, float] = {}
        for caller, w in weights.items():
            for layer, frac in self._shares(caller, visiting).items():
                out[layer] = out.get(layer, 0.0) + frac * w / total
        visiting.discard(func)
        self._share[func] = out
        return out

    def calls_into(self, layer: str) -> int:
        """Calls made into ``layer``'s functions from outside it."""
        n = 0
        for func, entry in self._stats.items():
            if self._own.get(func) != layer:
                continue
            for caller, edge in entry[4].items():
                if self._own.get(caller) != layer:
                    n += edge[0]
        return n
