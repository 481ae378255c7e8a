"""The one numeric check, and every public numeric parameter going through it."""

import math

import numpy as np
import pytest

from platoonkit import (
    DelaySpec,
    NoiseDisturbance,
    ParameterError,
    SinusoidDisturbance,
    build_platoon,
    delay_bounds_k,
    delay_margin_exact,
    delay_margin_formation,
    eig_sym,
    gamma_conditions,
    ground,
    make_reference_set,
    md_arrangement,
    min_refs_nonexpansive,
    peak_amplitude,
    simulate,
    threshold_scan,
    velocity_system,
    verdict,
)
from platoonkit.dde_sim import simulate_to_csv
from platoonkit.errors import check

GS = ground(build_platoon(5, 2), make_reference_set(5, [3]))
SPEC = eig_sym(GS.lg)


class TestCheck:
    def test_returns_the_value(self):
        assert check("x", 2.5) == 2.5
        assert check("x", 0.0, 0.0) == 0.0
        assert check("x", -1e308) == -1e308

    def test_integer_comes_back_as_int(self):
        value = check("n", 5.0, 2, integer=True)
        assert value == 5 and type(value) is int
        assert check("n", np.int64(7), 2, integer=True) == 7
        assert check("n", 10**40, 2, integer=True) == 10**40  # beyond float range

    @pytest.mark.parametrize("value,kwargs", [
        (math.nan, {}),
        (math.inf, {}),
        (-math.inf, {}),
        (0.0, {"low": 0.0, "strict": True}),
        (-1e-300, {"low": 0.0}),
        (2.5, {"integer": True}),
        (1, {"low": 2, "integer": True}),
        ("5", {}),
        (None, {}),
        (1j, {}),
        (10**400, {}),  # an int that no float holds
        (10**400, {"integer": True}),
    ])
    def test_rejects(self, value, kwargs):
        with pytest.raises(ParameterError, match="speed must be a finite"):
            check("speed", value, **kwargs)


def scan(**kwargs):
    args = {"tau_lo": 0.1, "tau_hi": 1.0, "tolerance": 0.01, **kwargs}
    return threshold_scan(velocity_system(GS), horizon=20.0, **args)


def run(**kwargs):
    args = {"x0": np.ones(4), "horizon": 10.0, "step": 0.01, **kwargs}
    return simulate(velocity_system(GS), DelaySpec(0.1, "full"), **args)


def judge(**kwargs):
    args = {"x0": np.ones(4), "horizon": 10.0, "step": 0.01, **kwargs}
    return verdict(velocity_system(GS), DelaySpec(0.1, "full"), **args)


# each call takes the bad value in one numeric parameter
CALLS = {
    "DelaySpec.tau": lambda bad: DelaySpec(tau=bad),
    "SinusoidDisturbance.amplitude": lambda bad: SinusoidDisturbance(bad, 1.0),
    "SinusoidDisturbance.omega": lambda bad: SinusoidDisturbance(1.0, bad),
    "NoiseDisturbance.amplitude": lambda bad: NoiseDisturbance(bad, 0),
    "NoiseDisturbance.seed": lambda bad: NoiseDisturbance(1.0, bad),
    "simulate.step": lambda bad: run(step=bad),
    "simulate.horizon": lambda bad: run(horizon=bad),
    "simulate.x0": lambda bad: run(x0=[1.0, bad, 0.0, 0.0]),
    "verdict.step": lambda bad: judge(step=bad),
    "verdict.horizon": lambda bad: judge(horizon=bad),
    "verdict.x0": lambda bad: judge(x0=[1.0, bad, 0.0, 0.0]),
    "threshold_scan.tau_lo": lambda bad: scan(tau_lo=bad),
    "threshold_scan.tau_hi": lambda bad: scan(tau_hi=bad),
    "threshold_scan.tolerance": lambda bad: scan(tolerance=bad),
    "peak_amplitude": peak_amplitude,
    "gamma_conditions": lambda bad: gamma_conditions(GS, bad),
    "min_refs_nonexpansive.n": lambda bad: min_refs_nonexpansive(bad, 2),
    "min_refs_nonexpansive.k": lambda bad: min_refs_nonexpansive(10, bad),
    "delay_bounds_k": delay_bounds_k,
    "delay_margin_exact": delay_margin_exact,
    "delay_margin_formation": lambda bad: delay_margin_formation(SPEC, bad),
    "build_platoon.n": lambda bad: build_platoon(bad, 1),
    "build_platoon.k": lambda bad: build_platoon(10, bad),
    "md_arrangement.n": lambda bad: md_arrangement(bad, 1),
    "md_arrangement.k": lambda bad: md_arrangement(10, bad),
    "make_reference_set.n": lambda bad: make_reference_set(bad, [1]),
    "make_reference_set.refs": lambda bad: make_reference_set(10, [1, bad]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_numeric_parameter_rejects_non_finite(monkeypatch, name, bad):
    # refused before any run: a scan that simulates has let the value through
    def no_run(*args, **kwargs):
        pytest.fail("threshold_scan simulated before rejecting its arguments")

    monkeypatch.setattr("platoonkit.dde_sim.simulate", no_run)
    monkeypatch.setattr("platoonkit.dde_sim.verdict", no_run)
    with pytest.raises(ParameterError, match="finite"):
        CALLS[name](bad)


@pytest.mark.parametrize("call", [
    lambda: scan(tau_lo=0.0),
    lambda: delay_bounds_k(2.5),
    lambda: delay_margin_exact(0.0),
    lambda: delay_margin_exact([-1.0, 0.0]),
    lambda: md_arrangement(10, 1.5),
    lambda: NoiseDisturbance(1.0, -1),
    lambda: run(horizon=0.05),
    lambda: judge(horizon=0.05),
    lambda: gamma_conditions(GS, 1e-320),  # 1/gamma overflows to inf
    lambda: NoiseDisturbance(-0.3, 0),
    lambda: NoiseDisturbance(9e307, 0),  # the draws span 2 * amplitude, which overflows
    # omega t overflows within the run, and sin(inf) is NaN
    lambda: run(disturbance=SinusoidDisturbance(0.3, 1e308)),
])
def test_out_of_range_values_rejected(call):
    with pytest.raises(ParameterError, match="finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: NoiseDisturbance(10**400, 0),
    lambda: DelaySpec(10**400),
    lambda: SinusoidDisturbance(10**400, 1),
], ids=["noise", "delay", "sinusoid"])
def test_int_beyond_the_float_range_rejected(call):
    # a Python int is a number, but this one overflows where it becomes a float
    with pytest.raises(ParameterError, match="must be a finite number"):
        call()


def test_disturbance_refused_before_the_file_is_opened(tmp_path):
    # the streamed run is refused as simulate is, and writes no file
    path = tmp_path / "trajectory.csv"
    with pytest.raises(ParameterError, match="omega times the horizon must be a finite"):
        simulate_to_csv(path, velocity_system(GS), DelaySpec(0.1, "full"), np.ones(4), 10.0,
                        0.01, SinusoidDisturbance(0.3, 1e308))
    assert not path.exists()
