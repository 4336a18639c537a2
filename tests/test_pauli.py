import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distqc.pauli import (
    ChannelParams,
    NoiseParams,
    as_fidelity_vector,
    cnot_propagate,
    depolarizing_noise,
    effective_pg,
    hadamard_propagate,
    label_mul,
)

I, X, Y, Z = 0, 1, 2, 3


def test_label_mul_examples():
    assert label_mul(X, X) == I
    assert label_mul(X, Z) == Y
    assert label_mul(I, Y) == Y


def test_label_mul_group_properties():
    for a in range(4):
        assert label_mul(a, a) == I  # every label is its own inverse
        for b in range(4):
            assert label_mul(a, b) == label_mul(b, a)
            for c in range(4):
                assert label_mul(label_mul(a, b), c) == label_mul(a, label_mul(b, c))


def test_label_mul_rejects_bad_labels():
    with pytest.raises(ValueError):
        label_mul(4, 0)


def test_cnot_propagate_examples():
    assert cnot_propagate(X, I) == (X, X)  # X copies forward
    assert cnot_propagate(I, Z) == (Z, Z)  # Z copies backward
    assert cnot_propagate(Y, Y) == (X, Z)


def test_cnot_propagate_involution():
    for c in range(4):
        for t in range(4):
            assert cnot_propagate(*cnot_propagate(c, t)) == (c, t)


def test_hadamard_propagate():
    assert hadamard_propagate(X) == Z
    assert hadamard_propagate(Y) == Y
    assert hadamard_propagate(I) == I
    for a in range(4):
        assert hadamard_propagate(hadamard_propagate(a)) == a


def test_depolarizing_noise_uniform():
    noise = depolarizing_noise(0.0015, 0.0015)
    table = noise.p_table
    off = table.copy()
    off[0, 0] = 0.0
    np.testing.assert_allclose(off[off > 0], 0.0001)
    assert np.count_nonzero(off) == 15


def test_depolarizing_noise_zero_is_identity():
    noise = depolarizing_noise(0.0, 0.0)
    assert noise.p_table[0, 0] == 1.0
    assert noise.p_table.sum() == 1.0


def test_depolarizing_noise_arithmetic():
    noise = depolarizing_noise(0.15, 0.15)
    assert noise.p_table[1][2] == pytest.approx(0.01)
    assert noise.p_table[0][0] == pytest.approx(0.85)


@pytest.mark.parametrize("p_g", [0.0, 1e-5, 0.0015, 0.1, 0.6])
def test_depolarizing_noise_normalized(p_g):
    noise = depolarizing_noise(p_g, 0.0)
    assert abs(noise.p_table.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("p_g,p_M,got", [
    (1.0, 0.0, "p_g must lie in [0, 1), got 1.0"),
    (-0.1, 0.0, "p_g must lie in [0, 1), got -0.1"),
    (0.0, 1.0, "p_M must lie in [0, 1), got 1.0"),
    (0.0, -0.2, "p_M must lie in [0, 1), got -0.2"),
    (float("nan"), 0.0, "p_g must lie in [0, 1), got nan"),
    (1, 0.0, "p_g must lie in [0, 1), got 1"),
], ids=["1.0-0.0", "-0.1-0.0", "0.0-1.0", "0.0--0.2", "nan-0.0", "1-0.0"])
def test_depolarizing_noise_rejects_bad_inputs(p_g, p_M, got):
    # a scalar refusal names its value as the number was given
    with pytest.raises(ValueError) as error:
        depolarizing_noise(p_g, p_M)
    assert str(error.value) == got


RATES = st.floats(0.0, 1.0, exclude_max=True)
#: one refused value of each kind: NaN, below the range and its open end
BAD = st.sampled_from([float("nan"), -0.1, -1e-300, 1.0, 2.0])


@settings(deadline=None, max_examples=60)
@given(points=st.lists(st.tuples(RATES, RATES), min_size=1, max_size=12), rows=st.sampled_from([1, 2, 3]))
def test_a_batched_point_is_bitwise_its_scalar_call(points, rows):
    # one call on (rows, n) rate arrays: each point's table and p_M are the
    # scalar call's bits, the p_M array has the batch shape
    points = points * rows
    p_g, p_M = (np.array(x).reshape(rows, -1) for x in zip(*points))
    noise = depolarizing_noise(p_g, p_M)
    assert noise.p_table.shape == p_g.shape + (4, 4) and noise.p_M.shape == p_g.shape
    assert noise.p_M.dtype == float
    for at in np.ndindex(p_g.shape):
        alone = depolarizing_noise(float(p_g[at]), float(p_M[at]))
        assert noise.p_table[at].tobytes() == alone.p_table.tobytes()
        assert noise.p_M[at] == alone.p_M and type(alone.p_M) is float


@settings(deadline=None, max_examples=60)
@given(rates=st.lists(RATES, min_size=1, max_size=8), data=st.data(), bad=BAD, rate=st.booleans())
def test_a_batch_refusal_names_its_first_bad_value(rates, data, bad, rate):
    at = data.draw(st.integers(0, len(rates) - 1))
    p_g, p_M = np.array(rates), np.array(rates[::-1])
    # the drawn bad value, then a bad 5.0 at every later point
    (p_g if rate else p_M)[at:] = np.where(np.arange(len(rates) - at) > 0, 5.0, bad)
    name = "p_g" if rate else "p_M"
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\), got {bad}$"):
        depolarizing_noise(p_g, p_M)


def test_a_batch_takes_the_ends_of_its_ranges():
    # 0 and the largest float below 1 pass, point by point, and 1 fails
    below = np.nextafter(1.0, 0.0)
    noise = depolarizing_noise(np.array([0.0, below]), np.array([below, 0.0]))
    assert noise.p_table[:, 0, 0].tolist() == [1.0, 1.0 - below] and noise.p_M.tolist() == [below, 0.0]
    with pytest.raises(ValueError, match=r"got 1.0$"):
        depolarizing_noise(np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError, match=r"got 1.0$"):
        depolarizing_noise(np.zeros(2), np.array([0.0, 1.0]))
    # each point's table sums to 1 within ATOL, and the refusal names the
    # first point's sum that does not
    tables = np.zeros((3, 4, 4))
    tables[:, 0, 0] = [1.0, 1 + 0.5e-12, 1 - 0.5e-12]
    NoiseParams(tables, np.zeros(3))
    tables[1:, 0, 0] = [1 + 2e-12, 0.5]
    with pytest.raises(ValueError) as error:
        NoiseParams(tables, np.zeros(3))
    assert str(error.value) == f"p_table must sum to 1, got {1 + 2e-12!r}"
    with pytest.raises(ValueError, match=r"^p_table must be 4x4, got shape \(3, 4, 4\) for p_M of shape \(2,\)$"):
        NoiseParams(tables, np.zeros(2))
    tables[1:] = tables[0]
    tables[2, 1, 1], tables[2, 2, 1] = -2e-12, -0.5  # the refusal names the first, in row-major order
    with pytest.raises(ValueError, match=r"^p_table entries must be non-negative, got -2e-12$"):
        NoiseParams(tables, np.zeros(3))


def test_effective_pg():
    assert effective_pg(0.001, 0.0, 5) == 0.001
    assert effective_pg(0.001, 0.0001, 5) == pytest.approx(0.0015)
    with pytest.raises(ValueError, match=r"^effective error probability 1.0 reaches 1$"):
        effective_pg(0.5, 0.1, 5)
    with pytest.raises(ValueError, match=r"^effective error probability inf reaches 1$"):
        effective_pg(0.001, float("inf"), 1)
    # inf * 0 is NaN, which no comparison with 1 catches unless written to
    with pytest.raises(ValueError, match=r"^effective error probability nan is undefined "
                                         r"at eta = inf and l_wait = 0$"):
        effective_pg(0.001, float("inf"), 0)
    with pytest.raises(ValueError):
        effective_pg(-0.1, 0.0, 0)
    with pytest.raises(ValueError, match="got 0.001, nan and 1"):
        effective_pg(0.001, float("nan"), 1)


def test_noise_params_validation():
    table = np.full((4, 4), 1 / 16)
    NoiseParams(p_table=table, p_M=0.1)
    with pytest.raises(ValueError) as error:
        NoiseParams(p_table=table * 2, p_M=0.1)
    assert str(error.value) == "p_table must sum to 1, got 2.0"
    with pytest.raises(ValueError) as error:
        NoiseParams(p_table=table, p_M=1)
    assert str(error.value) == "p_M must lie in [0, 1), got 1"
    with pytest.raises(ValueError):
        NoiseParams(p_table=table, p_M=1.0)
    with pytest.raises(ValueError) as error:
        NoiseParams(p_table=np.eye(3) / 3, p_M=0.0)
    assert str(error.value) == "p_table must be 4x4, got shape (3, 3)"
    with pytest.raises(ValueError):
        NoiseParams(p_table=np.eye(4), p_M=0.0)  # does not sum to 1
    nan_table = table.copy()
    nan_table[0, 1] = np.nan
    with pytest.raises(ValueError):
        NoiseParams(p_table=nan_table, p_M=0.1)


def test_channel_params():
    ch = ChannelParams(0.85)
    np.testing.assert_allclose(ch.f_ini, [0.85, 0.05, 0.05, 0.05])
    assert abs(ch.f_ini.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ChannelParams(0.25)
    with pytest.raises(ValueError):
        ChannelParams(1.1)


def test_as_fidelity_vector_validation():
    as_fidelity_vector([0.7, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        as_fidelity_vector([0.7, 0.1, 0.1])
    with pytest.raises(ValueError):
        as_fidelity_vector([0.9, 0.1, 0.1, -0.1])
    with pytest.raises(ValueError):
        as_fidelity_vector([0.9, 0.2, 0.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        as_fidelity_vector([np.nan, 0.0, 0.0, 0.0])  # NaN fails every comparison
    with pytest.raises(ValueError, match="outside"):
        as_fidelity_vector([1.0, np.nan, 0.0, 0.0])


@pytest.mark.parametrize("f, message", [
    ([0.5, 0.5, 0.5, 0.5], "fidelity vector must sum to 1, got 2.0"),
    ([1.5, -0.5, 0.0, 0.0], "fidelity vector entries outside [0, 1]: 1.5"),
    ([0.5, -0.5, 1.0, 0.0], "fidelity vector entries outside [0, 1]: -0.5"),
    ([1.0, np.nan, 0.0, 0.0], "fidelity vector entries outside [0, 1]: nan"),
], ids=["sum", "above", "below", "nan"])
def test_a_fidelity_vector_refusal_names_its_first_bad_value(f, message):
    # as a plain number, not numpy's repr of a scalar or the whole vector
    with pytest.raises(ValueError) as error:
        as_fidelity_vector(f)
    assert str(error.value) == message


# ATOL = 1e-12 is the slack of every input bound: an input on a bound passes
def test_inputs_on_their_bounds_pass():
    f = as_fidelity_vector([1 + 1e-12, -1e-12, 0.0, 0.0])  # on both entry bounds
    assert f[0] == 1 + 1e-12 and f[1] == -1e-12
    as_fidelity_vector([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        as_fidelity_vector([1 + 2e-12, -2e-12, 0.0, 0.0])
    assert ChannelParams(1.0).f_ini.tolist() == [1.0, 0.0, 0.0, 0.0]
    table = np.zeros((4, 4))
    table[0, 0], table[1, 2] = 1 + 1e-12, -1e-12
    assert NoiseParams(p_table=table, p_M=0.0).p_table[1, 2] == -1e-12
    table[0, 0], table[1, 2] = 1 + 2e-12, -2e-12
    with pytest.raises(ValueError, match=r"^p_table entries must be non-negative, got -2e-12$"):
        NoiseParams(p_table=table, p_M=0.0)
    assert effective_pg(0.0, 0.0, 0) == 0.0
    assert effective_pg(0.0, 1e-4, 0) == 0.0
