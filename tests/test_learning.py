"""The one-synapse circuit: OR-gate motion output and the Oja update."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazecells.learning import CircuitParams, motion_output, oja_update
from mazecells.spatialcells import ConfigurationError


def test_motion_output_truth_table():
    c = CircuitParams(vibration_threshold=5.0, color_activation_threshold=0.3)
    assert motion_output(5.0, 0.0, 0.0, c) == 1  # threshold inclusive
    assert motion_output(4.999, 0.0, 0.0, c) == 0
    assert motion_output(0.0, 1.0, 0.0, c) == 0  # untrained circuit ignores color
    assert motion_output(0.0, 0.5, 0.8, c) == 1  # 0.4 >= 0.3
    assert motion_output(0.0, 0.374, 0.8, c) == 0  # 0.2992 < 0.3
    assert motion_output(9.0, 1.0, 0.8, c) == 1


def test_motion_output_color_threshold_inclusive():
    c = CircuitParams()
    assert motion_output(0.0, 0.5, 0.6, c) == 1  # exactly 0.3


def test_oja_convergence_to_unit_weight():
    """Constant x = y = 1 drives w from 0 to 1 geometrically: after n steps
    w = 1 - (1 - eta)^n, which crosses 1e-6 of the target within 300 steps
    for eta = 0.05."""
    w = 0.0
    n_hit = None
    for n in range(1, 301):
        w = oja_update(w, 1.0, 1, 0.05)
        assert abs(w - (1.0 - 0.95**n)) < 1e-12
        if n_hit is None and abs(w - 1.0) < 1e-6:
            n_hit = n
    assert n_hit is not None
    # first crossing exactly where the closed form says
    assert n_hit == math.ceil(math.log(1e-6) / math.log(0.95))


def test_oja_fixed_point_at_x():
    for x in (0.0, 0.3, 1.0):
        assert oja_update(x, x, 1, 0.05) == x


def test_oja_no_output_no_change():
    assert oja_update(0.42, 0.9, 0, 0.05) == 0.42


def test_oja_rejects_non_binary_output():
    with pytest.raises(ConfigurationError):
        oja_update(0.5, 0.5, 2, 0.05)


def test_oja_binary_output_is_convex_pull():
    # with y in {0,1} the update is w + eta*(x - w): strictly between w and x
    w = oja_update(0.2, 0.8, 1, 0.1)
    assert abs(w - 0.26) < 1e-15


@given(
    w=st.floats(0.0, 1.0),
    x=st.floats(0.0, 1.0),
    y=st.integers(0, 1),
    eta=st.floats(1e-6, 0.999),
)
@settings(max_examples=500, deadline=None)
def test_oja_weight_stays_in_unit_interval(w, x, y, eta):
    assert 0.0 <= oja_update(w, x, y, eta) <= 1.0


@given(w=st.floats(0.0, 1.0), x=st.floats(0.0, 1.0), eta=st.floats(1e-6, 0.999))
@settings(max_examples=300, deadline=None)
def test_oja_single_step_decrease_bounded_by_eta(w, x, eta):
    assert oja_update(w, x, 1, eta) >= w - eta


def test_circuit_params_validation():
    for bad in (-1.0, 0.0):
        with pytest.raises(ConfigurationError, match="vibration_threshold must be positive"):
            CircuitParams(vibration_threshold=bad)
    with pytest.raises(ConfigurationError):
        CircuitParams(color_activation_threshold=0.0)
    with pytest.raises(ConfigurationError):
        CircuitParams(eta=1.0)
    for key in ("vibration_threshold", "color_activation_threshold", "eta"):
        with pytest.raises(ConfigurationError):
            CircuitParams(**{key: math.nan})
