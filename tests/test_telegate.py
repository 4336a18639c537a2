import numpy as np
import pytest

from distqc.pauli import NoiseParams, depolarizing_noise
from distqc.telegate import (
    SYNDROME_GATE_KINDS,
    GateKind,
    aggregates,
    closed_form_aggregates,
    gate_error_table,
    gate_error_table_from_circuit,
)

I, X, Y, Z = 0, 1, 2, 3
PERFECT = np.array([1.0, 0.0, 0.0, 0.0])
NOISELESS = depolarizing_noise(0.0, 0.0)


def random_point(rng):
    """A purified vector, a gate error and its depolarizing noise."""
    pg, pM = rng.uniform(0, 0.02, 2)
    tail = rng.uniform(0, 0.01, 3)
    f_bar = np.array([1 - tail.sum(), *tail])
    return f_bar, pg, depolarizing_noise(pg, pM)


def general_noise(rng, total=0.03):
    table = rng.uniform(0, 1, (4, 4))
    table[0, 0] = 0.0
    table *= total / table.sum()
    table[0, 0] = 1.0 - table.sum()
    return NoiseParams(p_table=table, p_M=rng.uniform(0, 0.01))


@pytest.mark.parametrize("kind", list(GateKind))
def test_zero_table_for_perfect_inputs(kind):
    table = gate_error_table(kind, PERFECT, NOISELESS)
    np.testing.assert_array_equal(table, np.zeros((4, 4)))


def test_type_one_entries():
    f_bar = [1 - 1e-3, 1e-3, 0.0, 0.0]
    noise = depolarizing_noise(0.0015, 0.001)  # p_ij = 1e-4
    table = gate_error_table(GateKind.I, f_bar, noise)
    assert table[I, Z] == pytest.approx(1e-3 + 2e-4)
    assert table[Z, X] == pytest.approx(1e-3 + 2e-4)
    # rows X and Y cannot be populated by this gate at first order
    assert np.all(table[X] == 0.0)
    assert np.all(table[Y] == 0.0)


def test_type_two_entries():
    f_bar = [1 - 1e-3, 1e-3, 0.0, 0.0]
    noise = depolarizing_noise(0.0015, 0.001)
    table = gate_error_table(GateKind.II, f_bar, noise)
    assert table[X, Z] == pytest.approx(1e-3 + 2e-4)
    assert table[Z, I] == pytest.approx(0.0 + 2e-4 + 2e-4)
    assert table[I, Z] == pytest.approx(1e-3 + 2e-4 + 2e-4)


def test_aggregates_zero_table():
    agg = aggregates(np.zeros((4, 4)))
    assert all(
        getattr(agg, n) == 0.0
        for n in ("p_zx", "p_zxbar", "p_zbarx", "p_xz", "p_xzbar", "p_xbarz")
    )


def test_type_one_aggregates_closed_form():
    f_bar = np.array([0.995, 0.002, 0.002, 0.001])
    pg, pM = 0.0015, 0.001
    agg = aggregates(gate_error_table(GateKind.I, f_bar, depolarizing_noise(pg, pM)))
    assert agg.p_zx == pytest.approx(4 * pg / 15 + pM)
    assert agg.p_zxbar == pytest.approx(f_bar[2] + f_bar[3] + 4 * pg / 15)
    assert agg.p_xbarz == pytest.approx(f_bar[1] + f_bar[2] + 8 * pg / 15)
    assert agg.p_xz == 0.0
    assert agg.p_xzbar == 0.0


@pytest.mark.parametrize("kind", [GateKind.II, GateKind.III])
def test_type_two_three_aggregates_closed_form(kind):
    f_bar = np.array([0.995, 0.002, 0.002, 0.001])
    pg, pM = 0.0015, 0.001
    agg = aggregates(gate_error_table(kind, f_bar, depolarizing_noise(pg, pM)))
    assert agg.p_zxbar == pytest.approx(f_bar[2] + f_bar[3] + 12 * pg / 15)
    assert agg.p_xz == pytest.approx(4 * pg / 15 + pM)
    assert agg.p_zx == pytest.approx(4 * pg / 15 + pM)
    assert agg.p_xbarz == pytest.approx(f_bar[1] + f_bar[2] + 12 * pg / 15)


@pytest.mark.parametrize("kind", list(GateKind))
def test_aggregates_match_compact_forms_at_random_points(kind):
    rng = np.random.default_rng(17)
    for _ in range(20):
        f_bar, pg, noise = random_point(rng)
        agg = aggregates(gate_error_table(kind, f_bar, noise))
        ref = closed_form_aggregates(kind, f_bar, pg, noise.p_M)
        for name in ("p_zx", "p_zxbar", "p_zbarx", "p_xz", "p_xzbar", "p_xbarz"):
            assert getattr(agg, name) == pytest.approx(getattr(ref, name), abs=1e-15)


@pytest.mark.parametrize("kind", list(GateKind))
def test_circuit_oracle_agrees_with_tables(kind):
    # a uniform table cannot tell where a noise source starts; a general
    # table for each side can
    rng = np.random.default_rng(23)
    for _ in range(50):
        f_bar, _, noise = random_point(rng)
        for sides in ((noise,), (general_noise(rng), general_noise(rng))):
            closed = gate_error_table(kind, f_bar, *sides)
            circuit = gate_error_table_from_circuit(kind, f_bar, *sides)
            assert np.abs(closed - circuit).max() < 1e-12


def test_kind_one_is_kind_three_without_the_syndrome_side():
    # kind I prepares its syndrome output fresh: kind III with a noiseless
    # syndrome-side gate and no syndrome-side measurement flip, bit for bit
    rng = np.random.default_rng(31)
    for _ in range(50):
        f_bar, _, _ = random_point(rng)
        noise = general_noise(rng)
        three = gate_error_table(GateKind.III, f_bar, noise, NOISELESS)
        three[X, Z] -= noise.p_M
        np.testing.assert_array_equal(gate_error_table(GateKind.I, f_bar, noise, general_noise(rng)), three)


def test_circuit_oracle_shows_a_broken_layout(monkeypatch):
    import distqc.telegate as tg

    broken = (
        ("cz", tg._B_IN, tg._ED),
        ("noise", "p", (tg._ED, tg._B_IN)),
        ("measure", tg._B_IN, "Z", tg._FRAME_DATA),  # wrong basis
    )
    monkeypatch.setitem(tg._LAYOUTS, GateKind.I, broken)
    # a uniform gate table is blind to the measurement basis; use a skewed one
    noise = general_noise(np.random.default_rng(0))
    f_bar = [0.99, 0.005, 0.003, 0.002]
    circuit = gate_error_table_from_circuit(GateKind.I, f_bar, noise)
    assert np.abs(circuit - gate_error_table(GateKind.I, f_bar, noise)).max() > 1e-12


@pytest.mark.parametrize("kind", list(GateKind))
def test_tables_affine_in_inputs(kind):
    # superposing two parameter points superposes the tables
    f1 = np.array([0.990, 0.004, 0.003, 0.003])
    f2 = np.array([0.996, 0.001, 0.001, 0.002])
    n1 = depolarizing_noise(0.012, 0.007)
    n2 = depolarizing_noise(0.003, 0.001)
    lam = 0.35
    f_mix = lam * f1 + (1 - lam) * f2
    table_mix = np.full((4, 4), lam) * gate_error_table(kind, f1, n1)
    table_mix += (1 - lam) * gate_error_table(kind, f2, n2)
    mixed_table = np.zeros((4, 4))
    # affine in (f, p, p_M) jointly: mix the noise parameters the same way
    p_mix = lam * n1.p_table + (1 - lam) * n2.p_table
    pm_mix = lam * n1.p_M + (1 - lam) * n2.p_M
    mixed_table = gate_error_table(kind, f_mix, NoiseParams(p_table=p_mix, p_M=pm_mix))
    np.testing.assert_allclose(mixed_table, table_mix, atol=1e-15)


def test_total_weight_first_order_scale():
    # the total error weight tracks (1 - F) + 2 p_g + 2 p_M to first order
    f_bar = np.array([0.999, 0.0005, 0.0003, 0.0002])
    pg = pM = 1e-3
    noise = depolarizing_noise(pg, pM)
    budget = (1 - f_bar[0]) + 2 * pg + 2 * pM
    for kind in GateKind:
        total = gate_error_table(kind, f_bar, noise).sum()
        assert 0.45 * budget < total < 1.1 * budget


def test_syndrome_round_kind_assignment():
    kinds = [SYNDROME_GATE_KINDS[l] for l in range(1, 9)]
    assert kinds == [
        GateKind.I, GateKind.II, GateKind.III, GateKind.II,
        GateKind.I, GateKind.II, GateKind.III, GateKind.II,
    ]
