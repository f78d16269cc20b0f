"""Unit tests for the §A.1 optimal checkpoint frequency model."""

import math

import pytest

from repro.core.frequency import optimal_frequency, wasted_gpu_hours
from repro.errors import InvalidValueError


def test_formula_matches_published_fstar():
    # f* = sqrt(NF / 2O), exactly as printed.
    assert optimal_frequency(8, 1.0, 0.001) == pytest.approx(
        math.sqrt(8 * 1.0 / (2 * 0.001))
    )


def test_fstar_minimizes_waste():
    n, f_rate, t, o, r = 8, 1.0, 10.0, 0.002, 0.01
    f_star = optimal_frequency(n, f_rate, o)
    best = wasted_gpu_hours(n, f_rate, t, o, r, f_star)
    for factor in (0.5, 0.8, 1.25, 2.0):
        other = wasted_gpu_hours(n, f_rate, t, o, r, f_star * factor)
        assert best <= other + 1e-9


def test_cheaper_checkpoints_allow_higher_frequency():
    # The paper's Llama2-13B numbers: PHOS 279/h vs Singularity 67/h —
    # a ~17x cheaper checkpoint gives a ~sqrt(17)=4.2x higher f*.
    f_phos = optimal_frequency(8, 1.0, 0.185 / 3600)
    f_sing = optimal_frequency(8, 1.0, 3.2 / 3600)
    assert f_phos > 4 * f_sing
    assert f_phos / f_sing == pytest.approx(math.sqrt(3.2 / 0.185), rel=0.01)


@pytest.mark.parametrize("n_gpus, failures, cheap_s, dear_s", [
    (8, 1.0, 0.041621, 3.587434),   # gate 4's delta vs full checkpoint
    (8, 1.0, 0.024057, 0.041621),   # ... and continuous round vs delta
    (1, 0.01, 1e-6, 2e-6),
    (64, 5.0, 0.5, 600.0),
    (8, 1.0, 3.0, 3.0 * (1 + 1e-9)),
])
def test_cheaper_overhead_means_higher_fstar_and_less_waste(
        n_gpus, failures, cheap_s, dear_s):
    # What benchmarks/test_perf_gates.py's f* ordering stands for: a
    # smaller O moves the waste curve's minimum right *and* down.
    cheap, dear = cheap_s / 3600.0, dear_s / 3600.0
    f_cheap = optimal_frequency(n_gpus, failures, cheap)
    f_dear = optimal_frequency(n_gpus, failures, dear)
    assert f_cheap > f_dear

    def waste(overhead, f):
        return wasted_gpu_hours(n_gpus, failures, 24.0, overhead, 0.001, f)

    assert waste(cheap, f_cheap) < waste(dear, f_dear)
    # ... because waste(f; O) grows with O at *every* frequency.
    for f in (f_dear / 8, f_dear, f_cheap, f_cheap * 8):
        assert waste(cheap, f) < waste(dear, f)


def test_waste_scales_linearly_with_time_and_gpus_overhead_term():
    base = wasted_gpu_hours(4, 0.5, 1.0, 0.001, 0.01, 10.0)
    double_t = wasted_gpu_hours(4, 0.5, 2.0, 0.001, 0.01, 10.0)
    assert double_t == pytest.approx(2 * base)


def test_more_failures_more_waste():
    low = wasted_gpu_hours(8, 0.1, 1.0, 0.001, 0.01, 10.0)
    high = wasted_gpu_hours(8, 2.0, 1.0, 0.001, 0.01, 10.0)
    assert high > low


def test_validation_errors():
    with pytest.raises(InvalidValueError):
        optimal_frequency(0, 1.0, 0.01)
    with pytest.raises(InvalidValueError):
        optimal_frequency(8, -1.0, 0.01)
    with pytest.raises(InvalidValueError):
        optimal_frequency(8, 1.0, 0.0)
    with pytest.raises(InvalidValueError):
        wasted_gpu_hours(8, 1.0, 1.0, 0.01, 0.01, 0.0)
