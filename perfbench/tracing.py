"""In-memory tracer wrapped around the public functions of each library layer.

The library itself is not instrumented.  :func:`install` replaces selected
module-level functions of ``lefschetz`` with wrappers that time each call, in
every ``lefschetz`` module that binds the same function object, so calls made
from inside the library are seen too.  :func:`uninstall` puts the originals
back.

Two kinds of wrapper exist:

* ``span`` functions get one span record per call: name, start, end, the
  enclosing span and the operation id.  Spans stay in memory until
  :meth:`Tracer.write` is called at exit.
* ``count`` functions are hot leaves (``mat_mul`` is called millions of times
  in the search workload); they only add to a call count and time totals.

Both kinds feed the self-time totals: a call's self time is its duration
minus the durations of the instrumented calls made directly inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, function, kind, outcome) -- ``outcome`` maps a call's return value
# to the name of a counter to bump, or None.
INSTRUMENTED = [
    ("homology", "mat_mul", "count", None),
    ("homology", "mat_vec", "count", None),
    ("homology", "preserves_pairing", "count", None),
    ("homology", "smith_normal_form", "span", None),
    ("curves", "enumerate_classes", "count", None),
    ("mapping", "twist_matrix", "count", None),
    ("mapping", "evaluate", "count", None),
    ("mapping", "perm_group_surjective", "span", None),
    ("mapping", "mcg_surjectivity_oracle", "span", lambda r: r.status),
    ("fibration", "twist_product", "span", None),
    ("fibration", "total_space_invariants", "span", None),
    ("fibration", "hurwitz_move", "count", None),
    ("fibration", "global_conjugate", "count", None),
    ("fibration", "destabilize", "count", None),
    ("fibration", "reduce", "span", lambda r: "exhausted" if r.exhausted else None),
    ("fibration", "universality_report", "span", None),
    ("fibration", "pullback", "span", None),
    ("fibration", "substitution_witness", "span",
     lambda r: "found" if r is not None else None),
    ("serialize", "fibration_loads", "span", None),
    ("serialize", "dumps", "span", None),
    ("cli", "main", "span", None),
]


class Stat:
    __slots__ = ("calls", "self_s", "raised", "mat_mul_inside", "outcomes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.mat_mul_inside = 0
        self.outcomes: dict[str, int] = {}


class Tracer:
    """Collects spans and per-function totals while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.stats: dict[str, Stat] = {}
        # open calls: [start, time of instrumented calls inside, span index or -1]
        self.stack: list[list] = []
        self._mat_mul = self.stat("homology.mat_mul")

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def open_span(self, name: str) -> list:
        parent = next((f[2] for f in reversed(self.stack) if f[2] >= 0), -1)
        start = perf_counter()
        self.spans.append([name, start, None, parent, self.op_id])
        frame = [start, 0.0, len(self.spans) - 1]
        self.stack.append(frame)
        return frame

    def close(self, frame: list, st: Stat, end: float) -> None:
        self.stack.pop()
        duration = end - frame[0]
        st.calls += 1
        st.self_s += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        if frame[2] >= 0:
            self.spans[frame[2]][2] = end

    def wrap(self, qualname: str, fn, kind: str, outcome):
        tracer = self
        st = self.stat(qualname)

        if kind == "count":
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = [perf_counter(), 0.0, -1]
                tracer.stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    st.raised += 1
                    raise
                finally:
                    tracer.close(frame, st, perf_counter())
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = tracer.open_span(qualname)
                mm0 = tracer._mat_mul.calls
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    st.raised += 1
                    raise
                finally:
                    tracer.close(frame, st, perf_counter())
                    st.mat_mul_inside += tracer._mat_mul.calls - mm0
                key = outcome(result) if outcome else None
                if key is not None:
                    st.outcomes[key] = st.outcomes.get(key, 0) + 1
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every function in INSTRUMENTED; returns what :func:`uninstall` needs."""
    patched = []
    for module, name, kind, outcome in INSTRUMENTED:
        mod = importlib.import_module(f"lefschetz.{module}")
        original = getattr(mod, name)
        wrapper = tracer.wrap(f"{module}.{name}", original, kind, outcome)
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("lefschetz")
                    and getattr(other, name, None) is original):
                setattr(other, name, wrapper)
                patched.append((other, name, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for mod, name, original in patched:
        setattr(mod, name, original)
