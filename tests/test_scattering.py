"""Kernel, amplitudes, eigenphases, phase tables, and the causality samples."""
import math

import numpy as np
import pytest

from hartman import (
    ATOMIC,
    ConvergenceError,
    PhysicalConstants,
    SquarePotential,
    amplitudes,
    build_phase_table,
    default_k_max,
    eigen_channels,
    van_kampen_check,
)
from hartman._kernel import (W_CUT, denominator, scatter_grid, transmission_grid,
                             trig_triplet)
from hartman.verify import dense_unwrap_phases, transfer_matrix_amplitudes

BARRIER5_HALF = SquarePotential(5.0, 0.5)  # d = 1
WELL1 = SquarePotential(-1.0, 1.0)
# mirror -k* of a resonance pole of BARRIER5_HALF; T there, from plane-wave
# matching, is 0.126 + 0.561i
RESONANCE_MIRROR = complex(-3.7957, 0.9378)


def _series_triplet(mu, d, terms=12):
    """C, S1, S2 from their full Taylor series in w = mu d^2 (general term)."""
    w = mu * d * d
    c = sum((-w) ** n / math.factorial(2 * n) for n in range(terms))
    s1 = d * sum((-w) ** n / math.factorial(2 * n + 1) for n in range(terms))
    s2 = d**3 * sum(
        (-1) ** (n + 1) * w**n * (2 * n + 2) / math.factorial(2 * n + 3)
        for n in range(terms)
    )
    return c, s1, s2


def test_kernel_continuous_across_series_switch():
    """Values must be continuous through the |q d| series guard boundary."""
    v0 = 2.0
    d = 2.0
    # mu = k^2 - 2 v0 crosses 0 at k = 2; straddle the series window densely
    k = np.sqrt(2.0 * v0 + np.linspace(-5e-4, 5e-4, 20001) / d**2)
    t, r, dphi, dd0, dd1 = scatter_grid(2.0 * v0, d, k)
    for arr in (t, r, dphi, dd0, dd1):
        steps = np.abs(np.diff(arr))
        assert steps.max() < 1e-6


@pytest.mark.parametrize("angle", [0.0, 0.4, 1.3, math.pi / 2, 2.2, math.pi, -0.9])
def test_trig_triplet_across_series_switch(angle):
    """Real and complex mu on a ray through |mu| d^2 = W_CUT agree with the
    full Taylor series on both sides of the switch."""
    d = 1.5
    w = np.linspace(0.5, 2.0, 601) * W_CUT * complex(math.cos(angle), math.sin(angle))
    mu = w / d**2
    if angle in (0.0, math.pi):
        mu = mu.real
    C, S1, S2 = trig_triplet(mu, d)
    assert np.iscomplexobj(C) == np.iscomplexobj(mu)
    ref = [np.array(x) for x in zip(*(_series_triplet(m, d) for m in mu))]
    for got, want, tol in zip((C, S1, S2), ref, (2e-15, 2e-15, 1e-11)):
        assert np.abs(got - want).max() < tol * np.abs(want).max()
    # complex mu on the real axis takes the complex branch, same values
    if angle in (0.0, math.pi):
        for got, want in zip(trig_triplet(mu.astype(complex), d), (C, S1, S2)):
            assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_trig_triplet_keeps_nan():
    """A NaN mu gives NaN C, S1 and S2, never what the output's memory held,
    alone or beside points of every branch; the other points keep their bits.
    (NaN / NaN may set the invalid flag, as it does downstream in T.)"""
    d = 1.5
    for mu in (np.array([np.nan, 2.0, -2.0, 1e-6]), np.full(3, np.nan),
               np.array([np.nan + 0j, 2.0, 1e-6])):
        with np.errstate(invalid="ignore"):
            triplet = trig_triplet(mu, d)
        for x, y in zip(triplet, trig_triplet(mu[1:], d)):
            assert np.isnan(x[0]) and _same_bits(x[1:], y)


def test_kernel_grids_match_one_point_calls():
    """Every point of a grid wholly in one branch of `trig_triplet` (tunneling,
    propagating, series window) or spread over all three gets the bits of a
    one-point call and of a 0-d call, in `trig_triplet` and `scatter_grid`.
    The long grid takes the masked branches of a mixed grid: contiguous runs,
    then interleaved signs, around a cluster of points in the series window;
    it and its complex counterpart (mu + 1e-6i) are checked against 1-d
    one-point calls (a 0-d call takes the same one-point path).  On 0-d
    input NumPy multiplies complex scalars without the fused multiply-add of
    its array loop, so there t and r may differ in the last bit; the real
    outputs may not."""
    g, d = 4.0, 1.5
    window = np.sqrt(g + np.linspace(-0.9, 0.9, 7) * W_CUT / d**2)
    cluster = np.sqrt(g + np.linspace(-0.95, 0.95, 96) * W_CUT / d**2)
    tunneling, propagating = np.linspace(0.05, 1.99, 1000), np.linspace(2.01, 6.0, 1000)
    rng = np.random.default_rng(7)
    interleaved = np.column_stack([rng.permutation(tunneling), rng.permutation(propagating)])
    grids = {
        "tunneling": np.linspace(0.1, 1.9, 7),
        "propagating": np.linspace(2.1, 6.0, 7),
        "series": window,
        "mixed": np.array([0.3, window[1], 4.0, window[5], 1.2, 2.5]),
        "long": np.concatenate([tunneling, cluster[:48], propagating, interleaved.ravel(),
                                cluster[48:]]),
    }
    long_mus = grids["long"] ** 2 - g
    assert len(long_mus) == 4096 and np.count_nonzero(np.abs(long_mus) * d * d < W_CUT) == 96
    assert np.count_nonzero(np.diff(np.sign(long_mus[2048:4048])) != 0) == 1999
    for name, ks in grids.items():
        mus = ks * ks - g
        if name == "series":
            assert np.all(np.abs(mus) * d * d < W_CUT)
        triplet = trig_triplet(mus, d)
        scatter = scatter_grid(g, d, ks)
        for i, k in enumerate(ks):
            for point in (np.array([k]), np.array(k))[: 1 if name == "long" else 2]:
                one = trig_triplet(point * point - g, d)
                assert all(_same_bits(x[i], y.reshape(())) for x, y in zip(triplet, one)), name
                one = [np.reshape(y, ()) for y in scatter_grid(g, d, point)]
                assert all(_same_bits(x[i], y) for x, y in zip(scatter[2:], one[2:])), name
                if point.ndim:
                    assert _same_bits(scatter[0][i], one[0]) and _same_bits(scatter[1][i], one[1])
                else:
                    assert one[0] == pytest.approx(scatter[0][i], rel=1e-15, abs=0)
                    assert one[1] == pytest.approx(scatter[1][i], rel=1e-15, abs=0)
    complex_mus = long_mus + 1e-6j
    assert np.count_nonzero(np.abs(complex_mus) * d * d < W_CUT) == 96
    triplet = trig_triplet(complex_mus, d)
    for i, mu in enumerate(complex_mus):
        one = trig_triplet(np.array([mu]), d)
        assert all(_same_bits(x[i], y[0]) for x, y in zip(triplet, one)), mu


def test_transmission_grid_is_scatter_grid_t_and_dphi():
    """`transmission_grid` returns real parts only: |D|^2, dPhi_T/dk, S1, S2,
    A and B, from which T = e^{-ikd}(A - iB)/|D|^2 is `scatter_grid`'s T;
    `denominator` returns its A, B and |D|^2 bitwise."""
    ks = np.concatenate([np.linspace(0.05, 8.0, 97), [2.0 + 1e-5]])
    for g in (-6.0, 0.0, 4.0, np.linspace(-3.0, 3.0, 98)):
        t, _, dphi, _, _ = scatter_grid(g, 1.5, ks)
        lean = transmission_grid(g, 1.5, ks)
        assert all(x.dtype == np.float64 for x in lean)
        den, lean_dphi, s1, s2, a, b = lean
        rebuilt = (np.cos(-ks * 1.5) + 1j * np.sin(-ks * 1.5)) * (a - 1j * b) / den
        assert _same_bits(rebuilt, t) and _same_bits(lean_dphi, dphi)
        triplet = trig_triplet(ks * ks - g, 1.5)
        assert _same_bits(a, triplet[0]) and _same_bits(s1, triplet[1])
        assert _same_bits(s2, triplet[2])
        assert all(_same_bits(x, y) for x, y in zip(denominator(g, 1.5, ks), (a, b, den)))


def test_one_branch_grids_match_masked_grids_bitwise():
    """A real grid with no point in the series window and every mu of one sign
    (all tunnelling or all propagating) takes plain ufuncs; each of its points
    gets the bits that the masked branches give the same point inside a grid
    with a series point and mu of both signs, through `trig_triplet` (real
    and complex mu), `denominator`, `transmission_grid` and `scatter_grid`."""
    rng = np.random.default_rng(27)
    for n in (1, 1, 2, 57):
        for _ in range(6):
            g, d = rng.uniform(0.5, 30.0), rng.uniform(0.1, 3.0)
            # w = mu d^2 log-uniform outside the window, -g d^2 < w for real k
            w_tun = -np.exp(rng.uniform(math.log(2.0 * W_CUT), math.log(0.99 * g * d * d), n))
            w_pro = np.exp(rng.uniform(math.log(2.0 * W_CUT), math.log(400.0), n))
            series_w = rng.uniform(-0.9, 0.9) * W_CUT
            for w, other in ((w_tun, w_pro[:1]), (w_pro, w_tun[:1])):
                masked_w = np.concatenate([w, [series_w], other])
                for mus, masked in ((w / d**2, masked_w / d**2),
                                    (w * (1 + 1e-3j) / d**2, masked_w * (1 + 1e-3j) / d**2)):
                    pairs = zip(trig_triplet(mus, d), trig_triplet(masked, d))
                    assert all(_same_bits(x, y[:n]) for x, y in pairs), (g, d, mus)
                ks, masked_ks = np.sqrt(g + w / d**2), np.sqrt(g + masked_w / d**2)
                for entry in (denominator, transmission_grid, scatter_grid):
                    pairs = zip(entry(g, d, ks), entry(g, d, masked_ks))
                    assert all(_same_bits(x, y[:n]) for x, y in pairs), (entry, g, d, ks)


def test_one_branch_nan_types_and_overflow_unchanged():
    """On a one-branch grid a NaN mu stays NaN (it takes the cosh branch), a
    0-d input keeps the output types of the masked path, and the cosh of an
    opaque barrier still overflows with NumPy's RuntimeWarning."""
    with np.errstate(invalid="ignore"):
        for mu in (np.array([np.nan]), np.array([np.nan, -2.0])):
            assert all(np.isnan(x[0]) for x in trig_triplet(mu, 1.5))
    for g in (-2.0, 4.0):  # a propagating and a tunnelling 0-d point
        k = np.float64(0.9)
        assert all(type(x) is np.ndarray and x.shape == () for x in trig_triplet(k * k - g, 1.5))
        types = [type(x) for x in denominator(g, 1.5, k)]
        assert types == [np.ndarray, np.float64, np.float64]
        types = [type(x) for x in transmission_grid(g, 1.5, k)]
        assert types == [np.float64, np.float64, np.ndarray, np.ndarray, np.ndarray, np.float64]
        types = [type(x) for x in scatter_grid(g, 1.5, k)]
        assert types == [np.complex128, np.complex128, np.float64, np.float64, np.float64]
    with np.errstate(invalid="ignore"), pytest.warns(RuntimeWarning, match="overflow"):
        trig_triplet(np.array([-1e6]), 1.0)


def test_free_particle_identity():
    amp = amplitudes(SquarePotential(0.0, 1.0), ATOMIC, 0.7)
    assert amp.t == pytest.approx(1.0, abs=1e-15)
    assert amp.r == pytest.approx(0.0, abs=1e-15)


def test_resonance_condition_gives_unit_transmission():
    """sin(q d) = 0 forces |T| = 1: inside wavenumber q = n pi / d, d = 3."""
    pot = SquarePotential(5.0, 1.5)
    for n in (1, 2, 3, 5):
        q = n * math.pi / 3.0
        k = math.sqrt(q * q + 10.0)  # k^2 = q^2 + 2 m v0
        amp = amplitudes(pot, ATOMIC, k)
        assert abs(amp.t) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_transmission_against_matching_oracle_frozen():
    # value computed with transfer_matrix_amplitudes (plane-wave matching)
    amp = amplitudes(BARRIER5_HALF, ATOMIC, 1.0)
    assert abs(amp.t) ** 2 == pytest.approx(0.0035743427223686505, rel=1e-12)


def test_oracle_equivalence_random_grid():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pot = SquarePotential(rng.uniform(-10, 10), rng.uniform(0.1, 3.0))
        k = rng.uniform(0.05, 10.0)
        amp = amplitudes(pot, ATOMIC, k)
        t_o, r_o = transfer_matrix_amplitudes(pot, ATOMIC, k)
        scale = max(abs(t_o), abs(r_o))
        assert abs(amp.t - t_o) / scale < 1e-10
        assert abs(amp.r - r_o) / scale < 1e-10


def test_complex_k_amplitudes_match_matching_oracle():
    """Off the real axis, T = e^{-ikd}/D and R agree with plane-wave matching."""
    rng = np.random.default_rng(17)
    samples = [RESONANCE_MIRROR, -RESONANCE_MIRROR.conjugate()] + [
        complex(rng.uniform(-6.0, 6.0), rng.uniform(0.01, 3.0)) for _ in range(60)
    ]
    for pot in (BARRIER5_HALF, SquarePotential(-3.0, 0.8)):
        g = pot.strength(ATOMIC)
        # points whose complex mu = k^2 - g falls inside the series window
        near = [np.sqrt(complex(g) + W_CUT / pot.width**2 * complex(0.3, 0.4))]
        for k in samples + near:
            amp = amplitudes(pot, ATOMIC, k)
            t_o, r_o = transfer_matrix_amplitudes(pot, ATOMIC, k)
            scale = max(abs(t_o), abs(r_o))
            assert abs(amp.t - t_o) / scale < 1e-10, k
            assert abs(amp.r - r_o) / scale < 1e-10, k
    amp = amplitudes(BARRIER5_HALF, ATOMIC, RESONANCE_MIRROR)
    assert amp.t == pytest.approx(0.126 + 0.561j, abs=1e-3)


def test_unitarity_property_grid():
    ks = np.linspace(1e-3, 50.0, 500)
    for v0 in np.linspace(-10, 10, 41):
        pot = SquarePotential(v0, 1.0) if v0 else SquarePotential(0.0, 1.0)
        t, r, _, _, _ = scatter_grid(pot.strength(ATOMIC), pot.width, ks)
        assert np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0).max() < 1e-12


def test_negative_k_conjugation():
    for k in (0.3, 1.7, 9.0):
        a_plus = amplitudes(WELL1, ATOMIC, k)
        a_minus = amplitudes(WELL1, ATOMIC, -k)
        assert a_minus.t == pytest.approx(a_plus.t.conjugate(), abs=1e-14)
        assert a_minus.r == pytest.approx(a_plus.r.conjugate(), abs=1e-14)


def test_removable_singularity_at_barrier_top():
    """E = v0 is a regular point: differences shrink linearly with epsilon
    and the series guard adds no jump beyond smooth variation."""
    pot = SquarePotential(5.0, 0.5)
    at = amplitudes(pot, ATOMIC, math.sqrt(10.0))
    diffs = {}
    for eps in (1e-6, 1e-8):
        plus = amplitudes(pot, ATOMIC, math.sqrt(2.0 * (5.0 + eps)))
        minus = amplitudes(pot, ATOMIC, math.sqrt(2.0 * (5.0 - eps)))
        diffs[eps] = max(abs(plus.t - at.t), abs(minus.t - at.t))
        # second difference cancels the smooth part; what remains bounds any
        # jump introduced by the q -> 0 handling
        assert abs(plus.t + minus.t - 2.0 * at.t) < 1e-8
    assert diffs[1e-8] < 2e-2 * diffs[1e-6]


def test_matching_oracle_at_barrier_top():
    """At E = v0 exactly (g = 4, k = 2) the matching oracle takes its {1, x}
    inside basis, and it agrees with the kernel there."""
    pot = SquarePotential(2.0, 0.75)
    t_o, r_o = transfer_matrix_amplitudes(pot, ATOMIC, 2.0)
    amp = amplitudes(pot, ATOMIC, 2.0)
    assert abs(amp.t - t_o) < 1e-13 and abs(amp.r - r_o) < 1e-13


def test_k_zero_rejected():
    with pytest.raises(ValueError):
        amplitudes(WELL1, ATOMIC, 0.0)


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
def test_non_finite_k_rejected(k):
    """k = inf ended in a ConvergenceError that blamed an opaque barrier; a
    negative real k stays valid."""
    with pytest.raises(ValueError, match="k must be finite"):
        amplitudes(BARRIER5_HALF, ATOMIC, k)
    assert amplitudes(BARRIER5_HALF, ATOMIC, -1.0).k == -1.0


def test_nondefault_units_consistency():
    """The same dimensionless combination must come out for scaled units."""
    consts = PhysicalConstants(hbar=2.0, mass=3.0)
    pot = SquarePotential(5.0, 0.5)
    amp = amplitudes(pot, consts, 1.0)
    # g = 2*3*5/4 = 7.5; equivalent atomic-units problem: v0' = g/2
    amp_ref = amplitudes(SquarePotential(3.75, 0.5), ATOMIC, 1.0)
    assert amp.t == pytest.approx(amp_ref.t, rel=1e-14)


class TestEigenChannels:
    def test_free(self):
        ec = eigen_channels(amplitudes(SquarePotential(0.0, 1.0), ATOMIC, 1.0))
        assert ec.s0 == pytest.approx(1.0, abs=1e-14)
        assert ec.s1 == pytest.approx(1.0, abs=1e-14)
        assert ec.delta0 == pytest.approx(0.0, abs=1e-14)
        assert ec.delta1 == pytest.approx(0.0, abs=1e-14)

    def test_unimodular(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pot = SquarePotential(rng.uniform(-10, 10), rng.uniform(0.1, 2.0))
            ec = eigen_channels(amplitudes(pot, ATOMIC, rng.uniform(0.05, 20.0)))
            assert abs(abs(ec.s0) - 1.0) < 1e-12
            assert abs(abs(ec.s1) - 1.0) < 1e-12

    def test_matching_formula_values_frozen(self):
        # independent solve of tan(ka + delta0) = (q/k) tan(qa) and the odd
        # analog at v0 = -1, a = 1, k = 0.5 (principal branch)
        ec = eigen_channels(amplitudes(WELL1, ATOMIC, 0.5))
        assert ec.delta0 == pytest.approx(1.0471624466596872, abs=1e-12)
        assert ec.delta1 == pytest.approx(0.8611769776780287, abs=1e-12)

    def test_complex_k_rejected(self):
        with pytest.raises(ValueError):
            eigen_channels(amplitudes(WELL1, ATOMIC, 1.0 + 0.5j))

    def test_factorization(self):
        amp = amplitudes(BARRIER5_HALF, ATOMIC, 1.3)
        ec = eigen_channels(amp)
        assert ec.s0 * ec.s1 == pytest.approx(amp.t**2 - amp.r**2, abs=1e-14)
        assert 0.5 * (ec.s0 + ec.s1) == pytest.approx(amp.t, abs=1e-14)


class TestPhaseTable:
    def test_free_phases_vanish(self):
        table = build_phase_table(SquarePotential(0.0, 1.0), ATOMIC, 0.01, 40.0)
        assert np.abs(table.phi_t).max() < 1e-12
        assert np.abs(table.delta0).max() < 1e-12
        assert np.abs(table.delta1).max() < 1e-12

    def test_levinson_limit_single_level_well(self):
        table = build_phase_table(WELL1, ATOMIC, 1e-4)
        assert table.phi_t[0] == pytest.approx(math.pi / 2, abs=5e-4)

    def test_additivity_everywhere(self):
        for pot in (BARRIER5_HALF, WELL1, SquarePotential(-6.5, 1.3)):
            table = build_phase_table(pot, ATOMIC, 1e-3)
            assert np.abs(table.phi_t - table.delta0 - table.delta1).max() < 1e-10
            # phases are already in their asymptotic tail at the anchor
            assert abs(table.phi_t[-1]) < 0.3
            assert abs(table.delta0[-1]) < 0.3
            assert abs(table.delta1[-1]) < 0.3

    def test_grid_strictly_increasing_and_jump_bounded(self):
        table = build_phase_table(SquarePotential(5.0, 1.5), ATOMIC, 0.01)
        assert np.all(np.diff(table.k_grid) > 0)
        assert np.abs(np.diff(table.phi_t)).max() <= math.pi / 2 + 1e-12

    def test_tunneling_branch_and_resonance_jumps(self):
        """Monotone negative phase below the barrier momentum; above it the
        pi-steps are sharper for the wider barrier."""
        kb = math.sqrt(10.0)
        tables = {
            d: build_phase_table(SquarePotential(5.0, d / 2.0), ATOMIC, 0.05, 60.0)
            for d in (1.0, 3.0)
        }
        for d, table in tables.items():
            deep = table.k_grid < 0.7 * kb
            assert np.all(np.diff(table.phi_t[deep]) < 0), f"d={d}"
            below = table.k_grid < kb
            assert np.all(table.phi_t[below] < 0), f"d={d}"
        # sharpness of the first above-barrier step: max dPhi/dk beyond k_b
        slopes = {}
        for d, table in tables.items():
            sel = (table.k_grid > kb) & (table.k_grid < 6.0)
            slopes[d] = table.dphi_t[sel].max()
        assert slopes[3.0] > 3.0 * slopes[1.0]

    def test_k_max_below_barrier_momentum(self):
        """k_max = 3 lies below the barrier momentum sqrt(10); the phases
        there equal those of default-range tables at the same k."""
        pot = SquarePotential(5.0, 6.0)
        table = build_phase_table(pot, ATOMIC, 0.1, 3.0)
        for i in (0, 400, 800, -1):
            reference = build_phase_table(pot, ATOMIC, table.k_grid[i])
            assert table.phi_t[i] == pytest.approx(reference.phi_t[0], abs=1e-12)
            assert table.delta0[i] == pytest.approx(reference.delta0[0], abs=1e-12)
            assert table.delta1[i] == pytest.approx(reference.delta1[0], abs=1e-12)

    def test_random_tables_match_dense_unwrap(self):
        """The sampling unwrap lost a multiple of 2 pi on five of these 40
        tables (seeded draws 1, 4, 15, 16 and 17)."""
        rng = np.random.default_rng(12345)
        for _ in range(40):
            pot = SquarePotential(rng.uniform(-50.0, 50.0), rng.uniform(0.5, 5.0))
            table = build_phase_table(pot, ATOMIC, 0.05, samples=400)
            dense = dense_unwrap_phases(pot, ATOMIC, table.k_grid)
            for phase, oracle in zip((table.phi_t, table.delta0, table.delta1), dense):
                assert np.abs(phase - oracle).max() < 1e-9, (pot.v0, pot.half_width)

    def test_resonance_narrower_than_float_spacing(self):
        """Just above the barrier momentum of a tall, wide barrier the first
        resonances are about 1e-17 wide, below the float spacing of k: the
        bisection stops at adjacent floats instead of looping."""
        pot = SquarePotential(1e6, 5000.0)
        kb = math.sqrt(pot.strength(ATOMIC))
        table = build_phase_table(pot, ATOMIC, kb - 1e-7, kb + 1e-9, samples=11)
        k = table.k_grid
        assert np.all(np.diff(k) > 0)
        wide = np.abs(np.diff(table.phi_t)) > math.pi / 2
        assert wide.any()
        assert np.all(k[1:][wide] == np.nextafter(k[:-1][wide], np.inf))

    @pytest.mark.parametrize("k_min, k_max, samples", [(1.0, 1.0, 10), (2.0, 1.0, 10),
                                                        (0.1, 1.0, 1)])
    def test_bad_grid_rejected(self, k_min, k_max, samples):
        with pytest.raises(ValueError):
            build_phase_table(BARRIER5_HALF, ATOMIC, k_min, k_max, samples=samples)

    @pytest.mark.parametrize("k_max", [math.inf, math.nan])
    def test_non_finite_k_max_rejected(self, k_max):
        """k_max = inf ended in a ConvergenceError that blamed an opaque barrier."""
        with pytest.raises(ValueError, match="k_max < inf"):
            build_phase_table(BARRIER5_HALF, ATOMIC, 0.1, k_max)

    def test_opaque_barrier_raises(self):
        """|D|^2 overflows above kappa d ~ 355: a typed error, not NaN or a
        wrong finite phase."""
        for a in (100.0, 400.0):
            with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
                build_phase_table(SquarePotential(5.0, a), ATOMIC, 0.01)

    def test_anchor_exact_for_wide_barrier(self):
        """A k_max above the barrier anchors on the right branch even where
        Phi_T(k_max) is far from its k -> infinity limit."""
        pot = SquarePotential(5.0, 6.0)
        table = build_phase_table(pot, ATOMIC, 0.1, 20.0)
        reference = build_phase_table(pot, ATOMIC, 0.1)
        assert table.phi_t[0] == pytest.approx(reference.phi_t[0], abs=1e-12)
        assert table.delta0[0] == pytest.approx(reference.delta0[0], abs=1e-12)
        assert table.delta1[0] == pytest.approx(reference.delta1[0], abs=1e-12)

    def test_default_k_max_satisfies_anchor(self):
        pot = SquarePotential(5.0, 0.5)
        assert default_k_max(pot, ATOMIC) == pytest.approx(80.0)
        build_phase_table(pot, ATOMIC, 1e-3)  # must not raise

    def test_derivative_consistency_with_finite_differences(self):
        pot = SquarePotential(-3.0, 1.0)
        g, d = pot.strength(ATOMIC), pot.width
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(60):
            k = rng.uniform(0.2, 20.0)
            h = 1e-5 * k
            ks = k + h * np.arange(-2.0, 3.0)
            t, _, dphi, _, _ = scatter_grid(g, d, ks)
            ph = np.unwrap(np.angle(t))
            if np.abs(np.diff(ph)).max() > 1.0:  # resonance peak
                continue
            fd = (ph[0] - 8 * ph[1] + 8 * ph[3] - ph[4]) / (12 * h)
            assert fd == pytest.approx(dphi[2], rel=1e-6, abs=1e-9)
            checked += 1
        assert checked > 30


class TestVanKampen:
    def test_real_axis_unimodular(self):
        reports = van_kampen_check(BARRIER5_HALF, ATOMIC, [0.5, 1.0, 3.0, 10.0])
        for rep in reports:
            assert rep.s_a0_abs == pytest.approx(1.0, abs=1e-12)
            assert rep.s_a1_abs == pytest.approx(1.0, abs=1e-12)
            assert rep.passed

    def test_upper_half_plane_sample(self):
        (rep,) = van_kampen_check(BARRIER5_HALF, ATOMIC, [1.0 + 1.0j])
        assert rep.passed
        assert max(rep.s_a0_abs, rep.s_a1_abs) <= 1.0 + 1e-10

    def test_reflection_symmetry(self):
        reports = van_kampen_check(
            BARRIER5_HALF, ATOMIC, [0.7 + 0.3j, 2.0 + 2.5j, -1.2 + 0.8j]
        )
        for rep in reports:
            assert rep.symmetry_error < 1e-12

    def test_requires_no_bound_states(self):
        with pytest.raises(ValueError):
            van_kampen_check(WELL1, ATOMIC, [1.0 + 1.0j])

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            van_kampen_check(BARRIER5_HALF, ATOMIC, [1.0 - 0.1j])

    def test_zero_sample_rejected(self):
        with pytest.raises(ValueError, match="k = 0"):
            van_kampen_check(BARRIER5_HALF, ATOMIC, [0j])

    def test_opaque_barrier_raises(self):
        """kappa d ~ 2,500: the kernel overflows to NaN, which ends in a
        typed error rather than in NaN moduli with passed=False."""
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
            van_kampen_check(SquarePotential(5.0, 400.0), ATOMIC, [0.5 + 0.1j])
