"""Tests for the benchmark's own code: span arithmetic, wrappers, the gate and
the traced run's pairing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from pipeline import GateFailure, PassResult, check_calibrate, check_diagnose, run_pass  # noqa: E402
from tracer import TARGETS, Span, Tracer, _minimize_info, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.emulate", -1, 0.0, 10.0),
        Span("emulator.fit_multires", 0, 1.0, 4.0),
        Span("emulator.lbfgsb", 1, 2.0, 3.0, {"nfev": 8, "nit": 3, "success": True}),
        Span("reduce.fit_basis", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    m = layer_metrics(spans, ["emulate"])
    assert m["cli.emulate.self_s"] == pytest.approx(3.0)
    assert m["emulator.fit_multires_s"] == pytest.approx(3.0)
    assert m["emulator.objective_eval_us"] == pytest.approx(1e6 / 8)
    assert m["reduce.fit_basis_s"] == pytest.approx(4.0)
    assert m["reduce.fit_basis_calls"] == 1


def test_tracer_records_parents_and_restores_attributes():
    module = types.ModuleType("perfbench_fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    sys.modules[module.__name__] = module
    original_inner, original_outer = module.inner, module.outer
    tracer = Tracer()
    try:
        tracer.install([(module.__name__, "inner", "fake.inner", None),
                        (module.__name__, "outer", "fake.outer", None)])
        assert module.outer(1) == 4
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    assert module.inner is original_inner and module.outer is original_outer
    assert [s.name for s in tracer.spans] == ["fake.outer", "fake.inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0]
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrapped_minimize_captures_nfev_and_nit():
    from scipy.optimize import minimize

    module = types.ModuleType("perfbench_fake_optimizer")
    module.minimize = minimize
    sys.modules[module.__name__] = module
    tracer = Tracer()
    try:
        tracer.install([(module.__name__, "minimize", "emulator.lbfgsb", _minimize_info)])
        res = module.minimize(lambda x: float(((x - 3.0) ** 2).sum()), np.zeros(2),
                              method="L-BFGS-B")
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    (span,) = tracer.spans
    assert span.info == {"nfev": res.nfev, "nit": res.nit, "success": True}
    m = layer_metrics(tracer.spans, [])
    assert m["emulator.lbfgsb_calls"] == 1
    assert m["emulator.objective_evals"] == res.nfev
    assert m["emulator.lbfgsb_nit"] == res.nit
    assert m["emulator.lbfgsb_success_ratio"] == 1.0


def test_full_target_list_wraps_a_real_fit():
    import scipy.optimize
    import floodcal.emulator as emulator

    rng = np.random.default_rng(0)
    theta_exp = rng.random((5, 2))
    theta_cheap = np.vstack([theta_exp, rng.random((5, 2))])
    scores = np.sin(3 * np.vstack([theta_cheap, theta_exp]).sum(axis=1))
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        emulator.fit(scores, theta_cheap, theta_exp, n_starts=2, seed=1)
    finally:
        tracer.uninstall()
    assert emulator.minimize is scipy.optimize.minimize
    m = layer_metrics(tracer.spans, [])
    assert m["emulator.lbfgsb_calls"] == 2
    assert m["emulator.objective_evals"] > m["emulator.lbfgsb_calls"]
    # every objective evaluation factors the gram at least once, inside L-BFGS-B
    assert m["emulator.cholesky_calls"] >= m["emulator.objective_evals"]
    lbfgsb = {i for i, s in enumerate(tracer.spans) if s.name == "emulator.lbfgsb"}
    assert any(s.parent in lbfgsb for s in tracer.spans if s.name == "emulator.cholesky")


def _fake_cli(calls):
    def design(cfg, seed):
        calls.append("design")
        raise RuntimeError("disk full")

    def emulate(cfg, seed, threads):
        calls.append(("emulate", threads))

    def diagnose(cfg, seed):
        calls.append("diagnose")

    return SimpleNamespace(cmd_design=design, cmd_emulate=emulate, cmd_diagnose=diagnose)


def test_gate_counts_a_raising_stage_and_a_failed_check():
    calls = []

    def reject(cfg):
        raise GateFailure("extent fit 0.5 < 0.9")

    result = run_pass(_fake_cli(calls), None, ["design", "emulate", "diagnose"], False,
                      checks={"diagnose": reject})
    assert calls == ["design", ("emulate", 1), "diagnose"]
    assert result.attempted == 3
    assert len(result.failures) == 2
    assert result.failures[0].startswith("design: RuntimeError")
    assert result.failures[1].startswith("diagnose: extent fit")
    assert set(result.stage_s) == {"design", "emulate", "diagnose"}


def _cfg(tmp_path, theta_star=(0.0305, 1.0)):
    return SimpleNamespace(out_dir=tmp_path, approach="mr", theta_star=np.array(theta_star),
                           space=SimpleNamespace(names=["n_ch", "rwe"]))


def _write_chain(tmp_path, ess, n_ch, rwe):
    (tmp_path / "chain_mr.manifest.json").write_text(json.dumps({"ess": ess}))
    rows = ["iter,theta_n_ch,theta_rwe,sigma2_eps,log_post,accepted_mask"]
    rows += [f"{i},{a},{b},0.001,-1.0,7" for i, (a, b) in enumerate(zip(n_ch, rwe))]
    (tmp_path / "chain_mr.csv").write_text("\n".join(rows) + "\n")


def test_calibrate_check(tmp_path):
    cfg = _cfg(tmp_path)
    covering = np.linspace(0.02, 0.04, 200), np.linspace(0.98, 1.02, 200)
    _write_chain(tmp_path, {"n_ch": 900.0, "rwe": 800.0, "sigma2_eps": 700.0}, *covering)
    check_calibrate(cfg)

    _write_chain(tmp_path, {"n_ch": 900.0, "rwe": 800.0, "sigma2_eps": 700.0},
                 np.linspace(0.05, 0.06, 200), covering[1])
    with pytest.raises(GateFailure, match="theta"):
        check_calibrate(cfg)

    _write_chain(tmp_path, {"n_ch": float("nan"), "rwe": 800.0, "sigma2_eps": 700.0}, *covering)
    with pytest.raises(GateFailure, match="ESS"):
        check_calibrate(cfg)


def test_diagnose_check(tmp_path):
    cfg = _cfg(tmp_path)
    (tmp_path / "metrics.json").write_text(json.dumps({"fit": 0.95}))
    check_diagnose(cfg)
    (tmp_path / "metrics.json").write_text(json.dumps({"fit": 0.5}))
    with pytest.raises(GateFailure):
        check_diagnose(cfg)


def test_repeat_runs_at_least_the_minimum():
    calls = []
    assert len(run.repeat(lambda: calls.append(1), 0.0, 3)) == 3
    assert len(calls) == 3


def test_traced_overhead_is_the_median_paired_difference():
    def result(seconds):
        return PassResult(stage_s={"calibrate": seconds}, attempted=1, min_ess=100.0)

    counts = ["grid.reads", "grid.writes"]
    layer = {name: 7 for name in counts}
    pairs = [(result(1.0), result(1.5), dict(layer)),
             (result(2.0), result(2.1), dict(layer)),
             (result(1.2), result(1.4), dict(layer))]
    values, problems = run.traced(pairs, counts)
    assert problems == []
    assert values["trace.overhead_s"] == pytest.approx(0.2)
    assert values["calibrate.min_ess_per_s"] == pytest.approx(100.0 / 1.2)

    pairs[2][2]["grid.reads"] = 8
    _, problems = run.traced(pairs, counts)
    assert len(problems) == 1 and "grid.reads" in problems[0]
