import numpy as np
import pytest

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
    assert noise.p_g == pytest.approx(p_g, abs=1e-12)


@pytest.mark.parametrize("p_g,p_M", [(1.0, 0.0), (-0.1, 0.0), (0.0, 1.0), (0.0, -0.2)])
def test_depolarizing_noise_rejects_bad_inputs(p_g, p_M):
    with pytest.raises(ValueError):
        depolarizing_noise(p_g, p_M)


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
    with pytest.raises(ValueError):
        NoiseParams(p_table=table * 2, p_M=0.1)
    with pytest.raises(ValueError):
        NoiseParams(p_table=table, p_M=1.0)
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
