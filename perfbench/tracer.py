"""Span tracing of gainswitch from outside the package.

While a Tracer is installed, each public function in TARGETS is replaced at
the name its callers resolve (``gainswitch.sweeps.integrate`` is what
``run_pulse_scenario`` calls, ``gainswitch.dynamics.integrate`` is what
``simulate_train`` and the oracle suite call) by a wrapper that records a
span: name, start, end and the enclosing span. Spans live in flat arrays in
memory and are written out by ``save``. A layer's self time is its spans'
duration minus the part covered by child spans and by leaf calls.

``DriveWaveform.current`` runs three times per RK4 step (millions of calls
per pass), so it is a leaf: a wrapper counts every call and times one call
in LEAF_SAMPLE (scaled back up), and the totals are attributed to the
enclosing span at its boundaries instead of each call becoming a span.
Timing every call would double the cost of a traced RK4 step; counting
alone adds about a quarter.

A target that no longer exists is listed in ``absent`` and skipped.
"""

import importlib
import time
from array import array

import numpy as np

# (module, attribute path, span name[, work extractor name])
TARGETS = (
    ("gainswitch.cli", "main", "cli.main"),
    ("gainswitch.cli", "load_profile", "profiles.load_profile"),
    ("gainswitch.cli", "run_table_sweep", "sweeps.run_table_sweep"),
    ("gainswitch.cli", "run_train_scenario", "sweeps.run_train_scenario"),
    ("gainswitch.cli", "render_table2", "metrics.render_table2"),
    ("gainswitch.cli", "write_metrics_csv", "metrics.write_metrics_csv"),
    ("gainswitch.cli", "write_cycles_csv", "sweeps.write_cycles_csv"),
    ("gainswitch.cli", "run_verification_suite", "oracle.run_verification_suite"),
    ("gainswitch.cli", "write_oracle_csv", "oracle.write_oracle_csv"),
    ("gainswitch.sweeps", "run_pulse_scenario", "sweeps.run_pulse_scenario"),
    ("gainswitch.sweeps", "thermal_state", "thermal.state"),
    ("gainswitch.sweeps", "integrate", "dynamics.integrate", "steps"),
    ("gainswitch.sweeps", "simulate_train", "dynamics.simulate_train"),
    ("gainswitch.sweeps", "extract_metrics", "metrics.extract"),
    ("gainswitch.dynamics", "integrate", "dynamics.integrate", "steps"),
    ("gainswitch.metrics", "extract_metrics", "metrics.extract"),
    ("gainswitch.thermal", "thermal_state", "thermal.state"),
    ("gainswitch.oracle", "poisson_gain_oracle", "oracle.poisson"),
    ("gainswitch.oracle", "signal_attacked_gain_oracle", "oracle.poisson"),
    ("gainswitch.oracle", "decoy_attacked_gain_oracle", "oracle.poisson"),
    ("gainswitch.oracle", "euler_reference_trajectory", "oracle.euler",
     "euler_steps"),
    ("gainswitch.attack", "min_feasible_distance", "attack.min_distance"),
    ("gainswitch.attack", "scan_distance", "attack.scan"),
    ("gainswitch.attack", "solve_attack", "attack.solve"),
    ("gainswitch.attack", "brentq", "attack.fallback"),
)
# the one leaf target, reported as dynamics.drive
LEAF = ("gainswitch.dynamics", "DriveWaveform.current")
ROOT_SPAN = "bench.pass"
LEAF_SAMPLE = 16  # coprime with the 3 drive calls per RK4 step


def _steps(args, kwargs, result):
    return len(result.times) - 1


def _euler_steps(args, kwargs, result):
    dt_fine = kwargs["dt_fine"] if "dt_fine" in kwargs else args[3]
    t_end = kwargs["t_end"] if "t_end" in kwargs else args[4]
    return int(round(t_end / dt_fine))


WORK = {"steps": _steps, "euler_steps": _euler_steps}


def _resolve(module_name, path):
    """(owner object, attribute name), or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Records spans for one or more traced passes; not thread-safe."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.leaf_calls = array("q")
        self.leaf_time = array("d")
        self.probe = array("d")
        self.stack = []
        self._leaf_calls = [0]     # running totals over every leaf call
        self._leaf_time = [0.0]    # sampled seconds, before scaling
        self._probe = [0.0]        # running host-probe time (calibrate.py)
        self.absent = []
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.work.append(0.0)
        self.leaf_calls.append(self._leaf_calls[0])
        self.leaf_time.append(self._leaf_time[0])
        self.probe.append(self._probe[0])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        # snapshots taken at _open become this span's inclusive leaf totals
        self.leaf_calls[idx] = self._leaf_calls[0] - self.leaf_calls[idx]
        self.leaf_time[idx] = ((self._leaf_time[0] - self.leaf_time[idx])
                               * LEAF_SAMPLE)
        self.probe[idx] = self._probe[0] - self.probe[idx]

    def _span_wrapper(self, fn, name, work=None):
        name_id = self._id(name)
        open_, close, work_arr = self._open, self._close, self.work

        if work is None:
            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    result = fn(*args, **kwargs)
                    try:
                        work_arr[idx] = work(args, kwargs, result)
                    except (AttributeError, LookupError, TypeError):
                        pass  # signature or result type changed: no count
                    return result
                finally:
                    close(idx)
        return wrapper

    def _leaf_wrapper(self, fn):
        calls, spent, probe = self._leaf_calls, self._leaf_time, self._probe
        clock = time.perf_counter

        def wrapper(*args):
            n = calls[0] + 1
            calls[0] = n
            if n % LEAF_SAMPLE:
                return fn(*args)
            p0 = probe[0]
            t0 = clock()
            result = fn(*args)
            spent[0] += clock() - t0 - (probe[0] - p0)
            return result
        return wrapper

    def install(self):
        """Wrap every target that exists; remember how to undo it."""
        self.absent = []
        for module, path, span, *work in TARGETS + (LEAF + (None,),):
            where = _resolve(module, path)
            if where is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = where
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            if span is None:
                wrapper = self._leaf_wrapper(fn)
            else:
                wrapper = self._span_wrapper(fn, span,
                                             WORK[work[0]] if work else None)
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def traced(self, body, probe_spent=None):
        """Run body() with every target wrapped, inside one root span.

        probe_spent is a Sampler's running probe time; the probes it counts
        are removed from every span and leaf time."""
        self._probe = probe_spent if probe_spent is not None else [0.0]
        self.install()
        root = self._open(self._id(ROOT_SPAN))
        try:
            return body()
        finally:
            self._close(root)
            self.uninstall()

    def arrays(self):
        """Spans as numpy arrays (copies, so tracing can go on), with
        per-span self time and exclusive leaf totals."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = (np.array(self.end, dtype=np.float64)
               - np.array(self.start, dtype=np.float64)
               - np.array(self.probe, dtype=np.float64))
        has_parent = parent >= 0

        def exclusive(inclusive):
            inside = np.bincount(parent[has_parent],
                                 weights=inclusive[has_parent],
                                 minlength=len(inclusive))
            return inclusive - inside

        leaf_time = exclusive(np.array(self.leaf_time, dtype=np.float64))
        leaf_calls = exclusive(
            np.array(self.leaf_calls, dtype=np.int64).astype(np.float64))
        return {
            "name": name, "parent": parent, "dur": dur,
            "self": exclusive(dur) - leaf_time,
            "work": np.array(self.work, dtype=np.float64),
            "leaf_calls": leaf_calls,
            "leaf_time": leaf_time,
        }

    def save(self, path):
        """Write every span (name id, parent index, start, end, probe time
        inside it) and the name table to a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            work=np.array(self.work, dtype=np.float64),
            leaf_calls=np.array(self.leaf_calls, dtype=np.int64),
            leaf_time=np.array(self.leaf_time, dtype=np.float64),
            probe=np.array(self.probe, dtype=np.float64))


class Summary:
    """Per-name aggregates over the recorded spans."""

    def __init__(self, tracer):
        self.ids = dict(tracer._ids)
        self.a = tracer.arrays()

    def _mask(self, name):
        if name not in self.ids:
            return np.zeros(len(self.a["name"]), dtype=bool)
        return self.a["name"] == self.ids[name]

    def count(self, name):
        return int(self._mask(name).sum())

    def total(self, name, field="dur"):
        return float(self.a[field][self._mask(name)].sum())

    def children_of(self, child, parent):
        """Number of `child` spans directly inside a `parent` span."""
        parents = self.a["parent"][self._mask(child)]
        parents = parents[parents >= 0]
        return int(self._mask(parent)[parents].sum())

    def root_uncovered(self):
        """Share of root-span time not covered by any recorded span."""
        m = self._mask(ROOT_SPAN)
        dur = float(self.a["dur"][m].sum())
        return float(self.a["self"][m].sum()) / dur if dur > 0 else 0.0
