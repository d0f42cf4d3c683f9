"""Span tracing of paramech from outside the package.

``Tracer.install`` wraps the public functions and methods of every layer
(module) of paramech.  A module-level function is rebound under its name in
every paramech module that holds it, so calls made through imported names are
traced too; methods are replaced on the class that defines them.  Nothing in
``src/`` is edited.

Each traced call records a span: name, start, end and parent span, kept in
per-thread arrays in memory and written out at the end.  Module functions
always record a span, so their call counts are exact.  Methods record one only
when they are entered from another layer (a layer boundary), so the exact
rational arithmetic inside ``exterior`` or ``split_quaternions`` is charged to
that layer without a span per operation.

The dynamics function handed to ``integrate_field`` is wrapped per call as a
span named ``<layer>.rhs:<method>``, and ``step_explicit`` records spans named
``integrators.step_explicit:<method>``, which gives field evaluations per step
for each method.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

LAYERS = (
    "cli",
    "scenario",
    "fields",
    "integrators",
    "lagrangian",
    "hamiltonian",
    "exterior",
    "structures",
    "split_quaternions",
    "audit",
)

# Dunder methods that do a layer's work when called from another layer.
_TRACED_DUNDERS = (
    "__init__",
    "__eq__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__pow__",
)

# Called once per cell of every trajectory table; a span each would cost
# more than the work it measures.
_UNTRACED = {"scenario.format_float"}


class _Buffer:
    """Spans of one thread, plus its stack of open spans and their layers."""

    __slots__ = ("name", "parent", "start", "end", "stack", "layers")

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.layers: list[int] = []


@dataclass(frozen=True)
class Spans:
    """All recorded spans; ``parent`` indexes into the same arrays (-1: root)."""

    names: tuple[str, ...]
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration of each span minus the time its child spans cover."""
        duration = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - covered

    def ids(self, predicate) -> np.ndarray:
        """Boolean mask of spans whose name satisfies ``predicate``."""
        chosen = np.array([bool(predicate(n)) for n in self.names], dtype=bool)
        return chosen[self.name]

    def layer_mask(self, layer: str) -> np.ndarray:
        return self.ids(lambda n: n.split(".", 1)[0] == layer)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
        )


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_ids: list[int] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = len(self._names)
                self._names.append(name)
                self._name_ids[name] = nid
                self._layer_ids.append(LAYERS.index(name.split(".", 1)[0]))
            return nid

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
            self._local.buffer = buffer
            return buffer

    def wrap(self, fn, name: str, boundary_only: bool = False):
        """``fn`` recording a span named ``name`` (``layer.rest``) per call."""
        nid = self._name_id(name)
        layer = self._layer_ids[nid]
        get_buffer = self._buffer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = get_buffer()
            layers = buf.layers
            if boundary_only and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            stack = buf.stack
            idx = len(buf.end)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()
                layers.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer of the imported paramech package."""
        import paramech

        modules = {layer: importlib.import_module(f"paramech.{layer}") for layer in LAYERS}
        holders = [paramech, *modules.values()]
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif inspect.isfunction(value) and f"{layer}.{attr}" not in _UNTRACED:
                    wrapped = self._wrap_function(layer, attr, value)
                    for holder in holders:
                        for name, held in list(vars(holder).items()):
                            if held is value:
                                setattr(holder, name, wrapped)

    def _wrap_function(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name == "integrators.step_explicit":
            per_method = {}

            def step_explicit(f, x, cfg):
                method = cfg.method
                if method not in per_method:
                    per_method[method] = self.wrap(fn, f"{name}:{method}")
                return per_method[method](f, x, cfg)

            return step_explicit
        if name == "integrators.integrate_field":
            traced = self.wrap(fn, name)

            def integrate_field(f, x0, t_end, cfg, invariant_fns=None):
                owner = getattr(f, "__module__", "").rsplit(".", 1)[-1]
                if owner not in LAYERS:
                    owner = "integrators"
                rhs = self.wrap(f, f"{owner}.rhs:{cfg.method}")
                return traced(rhs, x0, t_end, cfg, invariant_fns)

            return integrate_field
        return self.wrap(fn, name)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self.wrap(member.__func__, name, boundary_only=True))
            elif isinstance(member, property) and member.fget is not None:
                wrapped = property(self.wrap(member.fget, name, boundary_only=True))
            elif inspect.isfunction(member):
                wrapped = self.wrap(member, name, boundary_only=True)
            else:
                continue
            setattr(cls, attr, wrapped)

    def spans(self) -> Spans:
        """Every span, with parents re-indexed across threads.

        Call it once every traced call has returned.
        """
        names, parents = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        starts, ends = [np.zeros(0)], [np.zeros(0)]
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            parent = np.array(buf.parent, dtype=np.int64)
            parents.append(np.where(parent >= 0, parent + offset, -1))
            names.append(np.array(buf.name, dtype=np.int64))
            starts.append(np.array(buf.start))
            ends.append(np.array(buf.end))
            offset += len(parent)
        return Spans(
            tuple(self._names), *(np.concatenate(p) for p in (names, parents, starts, ends))
        )


METHODS = ("rk4", "implicit_midpoint", "symplectic_euler")
FIELD_EVALUATIONS = ("evaluate", "value_and_gradient", "value")
EXTERIOR_COUNTED = (
    "ext_d",
    "lagrangian_two_form",
    "vertical_differential",
    "poly_gradient",
    "poly_hessian",
)


def layer_metrics(spans: Spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    duration = spans.duration
    self_time = spans.self_time()

    def named(*names):
        return spans.ids(lambda n: n in names)

    def parent_in(mask):
        result = np.zeros(len(mask), dtype=bool)
        has_parent = spans.parent >= 0
        result[has_parent] = mask[spans.parent[has_parent]]
        return result

    def mean_us(mask):
        return float(duration[mask].mean()) * 1e6 if mask.any() else 0.0

    load = named("scenario.load_scenario")
    parse = load | (named("scenario.parse_scenario") & ~parent_in(load))
    lagrangian_run = named("lagrangian.integrate_lagrangian")
    inner_driver = named("integrators.integrate_field") & parent_in(lagrangian_run)
    evaluations = spans.ids(
        lambda n: n.startswith("fields.") and n.rsplit(".", 1)[-1] in FIELD_EVALUATIONS
    )
    steps = spans.ids(lambda n: n.startswith("integrators.step_explicit:"))
    solves = named("integrators.solve_linear")
    field_calls = named("hamiltonian.hamiltonian_vector_field")

    metrics = {
        "scenario.parse_s": (float(duration[parse].sum()), "s"),
        "scenario.build_s": (float(duration[named("scenario.build_field")].sum()), "s"),
        "scenario.output_s": (float(self_time[named("scenario.run_scenario")].sum()), "s"),
        "fields.evaluate_calls": (int(evaluations.sum()), "count"),
        "fields.evaluate_us": (mean_us(evaluations), "us"),
        "integrators.steps": (int(steps.sum()), "count"),
        "integrators.rhs_evals_per_step": (
            int(spans.ids(lambda n: ".rhs:" in n).sum()) / int(steps.sum()) if steps.any() else 0.0,
            "1/step",
        ),
    }
    for method in METHODS:
        method_steps = named(f"integrators.step_explicit:{method}")
        rhs = spans.ids(lambda n, m=method: n.endswith(f".rhs:{m}"))
        count = int(method_steps.sum())
        metrics[f"integrators.rhs_evals_per_step.{method}"] = (
            int(rhs.sum()) / count if count else 0.0,
            "1/step",
        )
        metrics[f"integrators.step_us.{method}"] = (mean_us(method_steps), "us")
    metrics.update(
        {
            "integrators.solve_linear_calls": (int(solves.sum()), "count"),
            "integrators.solve_linear_us": (mean_us(solves), "us"),
            "lagrangian.postpass_s": (
                float(duration[lagrangian_run].sum() - duration[inner_driver].sum()),
                "s",
            ),
            "lagrangian.residuals_s": (float(duration[named("lagrangian.el_residuals")].sum()), "s"),
            "hamiltonian.field_us": (mean_us(field_calls), "us"),
            "hamiltonian.residuals_s": (
                float(duration[named("hamiltonian.hamilton_residuals")].sum()),
                "s",
            ),
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (float(self_time[spans.layer_mask(layer)].sum()), "s")
    for fn in EXTERIOR_COUNTED:
        metrics[f"exterior.calls.{fn}"] = (int(named(f"exterior.{fn}").sum()), "count")
    metrics["exterior.calls"] = (
        sum(metrics[f"exterior.calls.{fn}"][0] for fn in EXTERIOR_COUNTED),
        "count",
    )
    return metrics
