import numpy as np
import pytest

from smoothot.lp_oracle import exact_ot, exact_wbp

from oracles import (
    brute_force_wbp_value,
    ipf_coupling,
    monotone_cost_1d,
    quantile_coupling_1d,
    random_histogram,
    simplex_mesh,
)


class TestExactOT:
    def test_identity_instance(self):
        a = np.array([0.2, 0.3, 0.5])
        c = 1.0 - np.eye(3)
        res = exact_ot(a, a, c)
        assert res.value == 0.0
        assert np.allclose(res.coupling, np.diag(a))

    def test_two_by_two_vertex(self):
        res = exact_ot([0.5, 0.5], [0.25, 0.75], [[0.0, 1.0], [1.0, 0.0]])
        assert res.value == pytest.approx(0.25, abs=1e-15)

    def test_rational_arithmetic_certifies(self):
        res = exact_ot([0.5, 0.5], [0.25, 0.75], [[0.0, 1.0], [1.0, 0.0]],
                       rational=True)
        assert res.value == 0.25

    def test_matches_1d_quantile_coupling(self):
        rng = np.random.default_rng(40)
        n = 8
        x = np.sort(rng.uniform(size=n)) + np.arange(n) * 1e-3
        y = np.sort(rng.uniform(size=n)) + np.arange(n) * 1e-3
        a = random_histogram(rng, n)
        b = random_histogram(rng, n)
        _, qv = quantile_coupling_1d(a, x, b, y, 2)
        res = exact_ot(a, b, (x[:, None] - y[None, :]) ** 2)
        assert abs(res.value - qv) <= 1e-10

    def test_optimality_against_sampled_feasible_plans(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n, m = rng.integers(2, 7, size=2)
            a = random_histogram(rng, n)
            b = random_histogram(rng, m)
            c = rng.uniform(size=(n, m))
            opt = exact_ot(a, b, c).value
            for _ in range(10):
                p = ipf_coupling(rng, a, b)
                assert opt <= float((p * c).sum()) + 1e-9

    def test_complementary_slackness(self):
        rng = np.random.default_rng(42)
        a = random_histogram(rng, 6)
        b = random_histogram(rng, 5)
        c = rng.uniform(size=(6, 5))
        res = exact_ot(a, b, c)
        reduced = c - res.row_duals[:, None] - res.col_duals[None, :]
        assert reduced.min() >= -1e-10                       # dual feasibility
        assert np.abs(reduced[res.coupling > 1e-12]).max() <= 1e-10

    def test_row_column_shift_identity(self):
        rng = np.random.default_rng(43)
        a = random_histogram(rng, 5)
        b = random_histogram(rng, 6)
        c = rng.uniform(size=(5, 6))
        u = rng.uniform(size=5)
        v = rng.uniform(size=6)
        base = exact_ot(a, b, c).value
        shifted = exact_ot(a, b, c + u[:, None] + v[None, :]).value
        assert shifted == pytest.approx(base + float(u @ a + v @ b), abs=1e-12)

    def test_degenerate_ties_terminate(self):
        a = np.full(6, 1.0 / 6)
        b = np.full(4, 0.25)
        c = np.random.default_rng(44).integers(0, 3, size=(6, 4)).astype(float)
        res = exact_ot(a, b, c)
        assert np.abs(res.coupling.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(res.coupling.sum(axis=0) - b).max() <= 1e-12

    def test_bland_rule_degenerate_instance_certified(self):
        # uniform masses and costs in {0, 1, 2}: long degenerate streaks, so
        # this instance takes Bland's branch (18 pivots of its 63); its ties
        # also pin the start's, the entering and the leaving tie-breaks and
        # the streak length
        n = 60
        a = np.full(n, 1.0 / n)
        c = np.random.default_rng(3).integers(0, 3, size=(n, n)).astype(float)
        values = []
        for rational in (False, True):
            res = exact_ot(a, a, c, rational=rational)
            assert res.pivots == 63
            plan = res.coupling
            assert np.abs(plan.sum(axis=1) - a).max() <= 1e-12
            assert np.abs(plan.sum(axis=0) - a).max() <= 1e-12
            reduced = c - res.row_duals[:, None] - res.col_duals[None, :]
            assert reduced.min() >= -1e-11                     # dual feasibility
            assert np.abs(reduced[plan > 0]).max() <= 1e-12    # complementary slackness
            values.append(res.value)
        assert abs(values[0] - values[1]) <= 1e-12

    def test_pivot_sequence_pinned(self):
        # the least-cost start and the entering rule (most negative reduced
        # cost) fix the pivot count on a random instance, which has no ties
        rng = np.random.default_rng(150)
        a, b = rng.uniform(0.1, 1.0, size=(2, 150))
        a, b = a / a.sum(), b / b.sum()
        c = rng.uniform(size=(150, 150))
        res = exact_ot(a, b, c)
        assert res.pivots == 346
        plan = res.coupling
        assert np.abs(plan.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(plan.sum(axis=0) - b).max() <= 1e-12
        reduced = c - res.row_duals[:, None] - res.col_duals[None, :]
        assert reduced.min() >= -1e-11
        assert np.abs(reduced[plan > 0]).max() <= 1e-12
        assert abs(res.value - float(res.row_duals @ a + res.col_duals @ b)) <= 1e-12

    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exact_ot([1.0], [0.5, 0.49], np.zeros((1, 2)))


def _start_instance(name):
    """Edge cases of the least-cost start, as (a, b, cost)."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "zero-mass":
        a, b = np.array([0.3, 0.0, 0.7, 0.0]), np.array([0.0, 0.5, 0.5])
    elif name == "identity":  # a row and its column empty at the same cell
        a = random_histogram(rng, 5)
        return a, a, 1.0 - np.eye(5)
    else:
        n, m = {"one-row": (1, 5), "one-column": (5, 1), "one-cell": (1, 1),
                "tall": (9, 3), "wide": (3, 8), "constant": (4, 6)}[name]
        a, b = random_histogram(rng, n), random_histogram(rng, m)
        if name == "constant":  # every cell ties
            return a, b, np.full((n, m), 2.5)
    return a, b, rng.uniform(size=(a.size, b.size))


START_CASES = ["zero-mass", "one-row", "one-column", "one-cell", "tall", "wide",
               "constant", "identity"]


class TestLeastCostStart:
    @staticmethod
    def certify(res, a, b, c):
        plan = res.coupling
        assert plan.min() >= 0.0
        assert np.abs(plan.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(plan.sum(axis=0) - b).max() <= 1e-12
        reduced = c - res.row_duals[:, None] - res.col_duals[None, :]
        assert reduced.min() >= -1e-12                                  # dual feasibility
        assert np.abs(reduced[plan > 0]).max(initial=0.0) <= 1e-12     # complementary slackness
        assert res.value == pytest.approx(float((plan * c).sum()), abs=1e-12)

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("name", START_CASES)
    def test_edge_case_certified(self, name, rational):
        a, b, c = _start_instance(name)
        res = exact_ot(a, b, c, rational=rational)
        self.certify(res, a, b, c)
        if name in ("one-row", "one-column", "one-cell", "constant", "identity"):
            assert res.pivots == 0  # the start is already optimal
        if name == "identity":
            assert res.value == 0.0
            assert np.array_equal(res.coupling, np.diag(a))
        if name == "zero-mass":
            assert not res.coupling[[1, 3]].any() and not res.coupling[:, 0].any()

    @pytest.mark.parametrize("name", START_CASES)
    def test_rational_matches_float(self, name):
        a, b, c = _start_instance(name)
        fl = exact_ot(a, b, c)
        ex = exact_ot(a, b, c, rational=True)
        assert abs(fl.value - ex.value) <= 1e-12
        assert np.abs(fl.coupling - ex.coupling).max() <= 1e-12


class TestQuantileCoupling:
    def test_same_support_identity(self):
        a = np.array([0.4, 0.6])
        x = np.array([0.0, 1.0])
        plan, value = quantile_coupling_1d(a, x, a, x, 2)
        assert value == 0.0
        assert np.allclose(plan, np.diag(a))

    def test_single_atoms(self):
        _, value = quantile_coupling_1d([1.0], [0.3], [1.0], [2.3], 3)
        assert value == pytest.approx(2.0 ** 3)

    def test_two_atom_hand_value(self):
        _, value = quantile_coupling_1d([0.5, 0.5], [0.0, 1.0], [0.5, 0.5], [2.0, 3.0], 2)
        assert value == pytest.approx(4.0)

    def test_rejects_unsorted_and_bad_exponent(self):
        with pytest.raises(ValueError):
            quantile_coupling_1d([0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], 2)
        with pytest.raises(ValueError):
            quantile_coupling_1d([1.0], [0.0], [1.0], [1.0], 0.5)


class TestExactWBP:
    def test_single_input_zero_diag(self):
        rng = np.random.default_rng(45)
        b = random_histogram(rng, 4)
        c = 1.0 - np.eye(4)
        res = exact_wbp(b[:, None], [1.0], c)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(res.barycenter, b, atol=1e-10)

    def test_identical_inputs(self):
        rng = np.random.default_rng(46)
        b = random_histogram(rng, 5)
        c = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
        res = exact_wbp(np.column_stack([b, b]), [0.5, 0.5], c)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(res.barycenter, b, atol=1e-8)

    def test_against_brute_force_grid_search(self):
        rng = np.random.default_rng(47)
        pts = np.array([0.0, 1.0, 2.0, 3.0])
        c = (pts[:, None] - pts[None, :]) ** 2
        B = np.column_stack([random_histogram(rng, 4), random_histogram(rng, 4)])
        lam = np.array([0.5, 0.5])
        res = exact_wbp(B, lam, c)

        def objective(A):  # one mesh point per row
            return sum(lam[k] * monotone_cost_1d(A, pts, B[:, k], pts, 2) for k in range(2))

        # the vectorized formula against the north-west-corner oracle
        mesh = simplex_mesh(0.01)
        sample = mesh[np.random.default_rng(48).choice(len(mesh), 300, replace=False)]
        for a, value in zip(sample, objective(sample)):
            ref = sum(lam[k] * quantile_coupling_1d(a, pts, B[:, k], pts, 2)[1]
                      for k in range(2))
            assert abs(value - ref) <= 1e-12

        brute = brute_force_wbp_value(B, lam, objective, step=0.01)
        assert res.value <= brute + 1e-9           # LP optimum dominates the mesh
        assert brute - res.value <= 0.04 * c.max()  # the mesh is 1e-2 coarse
