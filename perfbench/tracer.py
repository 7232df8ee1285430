"""Outside-in span tracer for igachan's public functions.

``Tracer.install`` replaces every public function of the igachan modules
(every name in a module's ``__all__`` that is a plain function) and the
public methods of ``BscmScenario`` with timing wrappers, in every igachan
namespace that holds a reference to them, so calls made through
``from .x import f`` bindings are timed too.  ``uninstall`` puts the
originals back.  The library itself is not modified.

A span is one wrapped call.  Its self time is its duration minus the time
covered by the wrapped calls it makes.  Spans are grouped into trials: a
trial begins when ``scenario.gen_power_matrices`` is called outside any
other span (each trial of a sweep draws its powers first, on the pool
thread that runs it), and ends with the last outermost span on that
thread before the next trial or sweep begins.  Totals are aggregated per trial in memory and
read after the run; spans outside any trial are not kept.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

PACKAGE = "igachan"
TRIAL_START = "scenario.gen_power_matrices"
MATVEC = "bscm.matvec"
# timed from outside by the benchmark as the sweep itself
SKIP = frozenset({"harness.run_benchmark"})
TRACED_CLASSES = (("bscm", "BscmScenario"),)


class Trial:
    """Per-trial totals: layer name -> [calls, inclusive s, self s]."""

    __slots__ = ("start", "end", "covered", "layers")

    def __init__(self, start: float):
        self.start = start
        self.end = start
        self.covered = 0.0
        self.layers: dict = {}

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.trials: list[Trial] = []
        self.diverged: dict = {}  # layer -> DivergenceError count
        self.operator_runs: list = []  # (matvec calls, iterations) per ic.run_estimator
        self.dense_bytes: list = []
        self._sweep = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- installation -------------------------------------------------------
    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        modules = self._modules()
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                key = f"{short}.{name}"
                if inspect.isfunction(fn) and key not in SKIP and fn not in wrappers:
                    wrappers[fn] = self._wrap(key, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for mod_short, cls_name in TRACED_CLASSES:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_short}"), cls_name, None)
            if cls is None:
                continue
            for attr, val in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(val):
                    self._patches.append((cls, attr, val))
                    setattr(cls, attr, self._wrap(f"{mod_short}.{attr}", val))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_sweep(self) -> None:
        """Close every open trial; spans before the next trial start are outside."""
        self._sweep += 1

    # -- spans --------------------------------------------------------------
    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.calls = {}
            st.trial = None
            st.trial_sweep = -1
        return st

    def _wrap(self, key, fn):
        tracer = self
        starts_trial = key == TRIAL_START

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            t0 = time.perf_counter()
            if starts_trial and not st.stack:
                trial = Trial(t0)
                tracer.trials.append(trial)
                st.trial, st.trial_sweep = trial, tracer._sweep
            trial = st.trial if st.trial_sweep == tracer._sweep else None
            st.calls[key] = st.calls.get(key, 0) + 1
            matvec_before = st.calls.get(MATVEC, 0)
            frame = [0.0]
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "DivergenceError":
                    with tracer._lock:
                        tracer.diverged[key] = tracer.diverged.get(key, 0) + 1
                raise
            else:
                if key == "ic.run_estimator":
                    tracer.operator_runs.append(
                        (st.calls.get(MATVEC, 0) - matvec_before,
                         getattr(result, "iterations", 0)))
                elif key == "bscm.assemble_dense_A":
                    tracer.dense_bytes.append(getattr(result, "nbytes", 0))
                return result
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                dur = t1 - t0
                if st.stack:
                    st.stack[-1][0] += dur
                if trial is not None:
                    _add(trial.layers, key, dur, dur - frame[0])
                    if not st.stack:
                        trial.covered += dur
                        trial.end = t1

        return traced

    # -- results ------------------------------------------------------------
    def layer_totals(self) -> dict:
        """Layer name -> [calls, inclusive s, self s] summed over all trials."""
        out: dict = {}
        for trial in self.trials:
            for key, (calls, incl, self_s) in trial.layers.items():
                _add(out, key, incl, self_s, calls)
        return out

    def gram_applies_per_iter(self) -> float:
        """Gram applies per IC iteration on the operator path.

        Each operator-path ``run_estimator`` call spends one ``matvec`` on
        the residual of its starting point; the rest belong to iterations.
        """
        applies = sum(k - 1 for k, _ in self.operator_runs if k > 0)
        iters = sum(it for k, it in self.operator_runs if k > 0)
        return applies / iters if iters else 0.0


def _add(table: dict, key: str, incl: float, self_s: float, calls: int = 1) -> None:
    row = table.get(key)
    if row is None:
        table[key] = [calls, incl, self_s]
    else:
        row[0] += calls
        row[1] += incl
        row[2] += self_s

