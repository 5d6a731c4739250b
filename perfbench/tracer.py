"""Outside-in span recorder for the traced benchmark run.

Public floodcal functions are replaced, at the module attribute their caller
looks them up under, by wrappers that record a span per call: name, parent
span, start and end.  Self time is a span's duration minus the durations of
its direct children.  Nothing under ``src/`` is changed; :meth:`Tracer.uninstall`
puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _minimize_info(args, kwargs, result) -> dict:
    return {"nfev": int(result.nfev), "nit": int(result.nit), "success": bool(result.success)}


def _run_mh_info(args, kwargs, result) -> dict:
    config = kwargs["config"] if "config" in kwargs else args[4]
    return {"iterations": int(config.iterations)}


# (module, attribute, span name, info hook).  Several attributes can share a
# span name when callers reach one function through different modules.
TARGETS = (
    ("floodcal.cli", "maximin_lhs", "design.maximin_lhs", None),
    ("floodcal.cli", "augment_cheap", "design.augment_cheap", None),
    ("floodcal.cli", "run_expensive", "synthmodel.run", None),
    ("floodcal.cli", "run_cheap", "synthmodel.run", None),
    ("floodcal.synthmodel", "run_expensive", "synthmodel.run", None),
    ("floodcal.cli", "shared_locations", "synthmodel.shared_locations", None),
    ("floodcal.cli", "simulate_observation", "synthmodel.simulate_observation", None),
    ("floodcal.cli", "read_ascii_grid", "grid.read", None),
    ("floodcal.cli", "write_ascii_grid", "grid.write", None),
    ("floodcal.cli", "flatten", "grid.flatten", None),
    ("floodcal.reduce", "flatten", "grid.flatten", None),
    ("floodcal.grid", "flatten", "grid.flatten", None),
    ("floodcal.reduce", "bilinear_interpolate", "grid.bilinear", None),
    ("floodcal.cli", "build_ensemble", "reduce.build_ensemble", None),
    ("floodcal.cli", "fit_basis", "reduce.fit_basis", None),
    ("floodcal.cli", "fit_multires", "emulator.fit_multires", None),
    ("floodcal.cli", "fit_singleres", "emulator.fit_singleres", None),
    ("floodcal.emulator", "minimize", "emulator.lbfgsb", _minimize_info),
    ("floodcal.emulator", "cholesky", "emulator.cholesky", None),
    ("floodcal.cli", "load_emulator", "emulator.load", None),
    ("floodcal.cli", "predict_many", "emulator.predict_many", None),
    ("floodcal.cli", "predict_joint", "emulator.predict_joint", None),
    ("floodcal.kernels", "predict_scores", "kernels.predict", None),
    ("floodcal.cli", "run_mh", "calibrate.run_mh", _run_mh_info),
    ("floodcal.calibrate", "random_walk_metropolis", "calibrate.mh", None),
    ("floodcal.calibrate", "effective_sample_size", "calibrate.ess", None),
    ("floodcal.cli", "save_chain", "calibrate.save_chain", None),
    ("floodcal.cli", "calibrated_projection", "calibrate.calibrated_projection", None),
    ("floodcal.cli", "uspe", "diagnostics.uspe", None),
    ("floodcal.cli", "extent_metrics", "diagnostics.extent_metrics", None),
    ("floodcal.cli", "write_manifest", "manifest.write", None),
)


class Tracer:
    """Records nested spans in memory; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, func, name: str, info=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if info is not None:
                self.spans[index].info = info(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, info in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(original, name, info))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _under(spans: list[Span], span_index: int, ancestor_name: str) -> bool:
    p = spans[span_index].parent
    while p >= 0:
        if spans[p].name == ancestor_name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], stages) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name.

    Units are declared in ``BENCHMARK.json``.  Counts repeat exactly for one
    seed.  All but ``kernels.predict_calls`` (and so
    ``calibrate.predict_calls_per_iter``) are the same for every seed: MH skips
    the emulator for proposals outside the parameter bounds, and the chain is
    drawn from the seed.
    """
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    lbfgsb = [s for s in spans if s.name == "emulator.lbfgsb"]
    nfev = sum(s.info["nfev"] for s in lbfgsb)
    predicts = count("kernels.predict")
    mh_runs = [s for s in spans if s.name == "calibrate.run_mh"]
    iterations = sum(s.info["iterations"] for s in mh_runs)
    mh_predicts = sum(
        1 for i, s in enumerate(spans)
        if s.name == "kernels.predict" and _under(spans, i, "calibrate.run_mh")
    )

    m = {
        "emulator.lbfgsb_calls": len(lbfgsb),
        "emulator.objective_evals": nfev,
        "emulator.objective_eval_us": 1e6 * sum(s.duration for s in lbfgsb) / max(nfev, 1),
        "emulator.lbfgsb_nit": sum(s.info["nit"] for s in lbfgsb),
        "emulator.lbfgsb_success_ratio":
            sum(s.info["success"] for s in lbfgsb) / max(len(lbfgsb), 1),
        "emulator.cholesky_calls": count("emulator.cholesky"),
        "emulator.cholesky_s": total("emulator.cholesky"),
        "emulator.fit_multires_s": total("emulator.fit_multires"),
        "emulator.fit_singleres_s": total("emulator.fit_singleres"),
        "emulator.load_s": total("emulator.load"),
        "emulator.predict_many_s": total("emulator.predict_many"),
        "emulator.predict_joint_s": total("emulator.predict_joint"),
        "kernels.predict_calls": predicts,
        "kernels.predict_us": 1e6 * total("kernels.predict") / max(predicts, 1),
        "calibrate.predict_calls_per_iter": mh_predicts / max(iterations, 1),
        "calibrate.mh_us_per_iter": 1e6 * total("calibrate.mh") / max(iterations, 1),
        "calibrate.run_mh_s": total("calibrate.run_mh"),
        "calibrate.ess_s": total("calibrate.ess"),
        "calibrate.save_chain_s": total("calibrate.save_chain"),
        "calibrate.calibrated_projection_s": total("calibrate.calibrated_projection"),
        "grid.reads": count("grid.read"),
        "grid.read_s": total("grid.read"),
        "grid.writes": count("grid.write"),
        "grid.write_s": total("grid.write"),
        "grid.bilinear_s": total("grid.bilinear"),
        "grid.flatten_s": total("grid.flatten"),
        "reduce.fit_basis_calls": count("reduce.fit_basis"),
        "reduce.fit_basis_s": total("reduce.fit_basis"),
        "reduce.build_ensemble_s": total("reduce.build_ensemble"),
        "synthmodel.runs": count("synthmodel.run"),
        "synthmodel.run_s": total("synthmodel.run"),
        "synthmodel.shared_locations_calls": count("synthmodel.shared_locations"),
        "synthmodel.shared_locations_s": total("synthmodel.shared_locations"),
        "design.maximin_lhs_s": total("design.maximin_lhs"),
        "design.augment_cheap_s": total("design.augment_cheap"),
        "diagnostics.uspe_s": total("diagnostics.uspe"),
        "diagnostics.extent_metrics_s": total("diagnostics.extent_metrics"),
        "manifest.write_s": total("manifest.write"),
    }
    own = self_times(spans)
    for stage in stages:
        name = f"cli.{stage}"
        m[f"{name}.self_s"] = sum(own[i] for i, s in enumerate(spans) if s.name == name)
    return m
