import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from climdemand import _rng
from climdemand._rng import replicate_draws, substream
from climdemand.errors import (
    AlignmentError,
    ConfigError,
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
    ShapeError,
)
from climdemand.panel import PanelDataset
from climdemand.spectral import (
    GcBootstrapConfig,
    _conditional_spectra,
    _conditional_thresholds,
    _decompose,
    _median_measure,
    _project_on_conditioning,
    _spectra,
    _unconditional_thresholds,
    conditional_gc_spectrum,
    fourier_frequencies,
    unconditional_gc_spectrum,
)
from climdemand.varbase import (
    bic_path,
    fit_var,
    lag_coefficients,
    refit,
    select_order,
    simulate_var,
    spectral_radius,
)
from memory_budget import traced_peak
from resampling import stationary_bootstrap_indices


def oracle_measure(coef, sigma, frequencies):
    """Closed-form measure from first principles: explicit transfer matrix.

    Build H = (I - sum_l A_l z^l)^{-1}, rotate the innovations so the
    cause's innovation is orthogonal to the effect's, and take the log
    ratio of the effect's spectrum to its own-innovation part.
    """
    s12_over_s22 = sigma[0, 1] / sigma[1, 1]
    t_inv = np.array([[1.0, s12_over_s22], [0.0, 1.0]])
    var_cause = sigma[0, 0] - sigma[0, 1] ** 2 / sigma[1, 1]
    out = np.empty(len(frequencies))
    for i, f in enumerate(frequencies):
        z = np.exp(-2j * np.pi * f)
        lagpoly = np.eye(2, dtype=complex)
        for l, a in enumerate(coef, start=1):
            lagpoly -= a * z**l
        rotated = np.linalg.inv(lagpoly) @ t_inv
        own = sigma[1, 1] * abs(rotated[1, 1]) ** 2
        total = var_cause * abs(rotated[1, 0]) ** 2 + own
        out[i] = np.log(total / own)
    return out


def measure(coef, sigma, frequencies):
    """The causality measure of one bivariate system, (p, 2, 2) lag
    matrices and innovation covariance, by ``_decompose``, which must not
    fail on it."""
    cross, intrinsic, failure = _decompose(
        np.asarray(coef, dtype=float)[None], np.asarray(sigma, dtype=float)[None], frequencies
    )
    assert failure.tolist() == [0]
    return np.log1p(cross[0] / intrinsic[0])


def simulate_pair(coef, sigma, T, rng, burn=300):
    chol = np.linalg.cholesky(sigma)
    shocks = rng.normal(size=(T + burn, 2)) @ chol.T
    return simulate_var(np.zeros(2), np.asarray(coef, float), shocks)[len(coef) + burn :]


def complex_decompose(coef, resid_cov, frequencies):
    """Cross and intrinsic terms and failure codes of a stack of systems in
    complex arithmetic: the (B, F, 2, 2) lag polynomial by ``einsum``, the
    transfer terms by complex division by its determinant, squared moduli by
    ``abs``.  The oracle of ``spectral._decompose``, which evaluates the
    same terms in real arithmetic."""
    s11 = resid_cov[:, 0, 0, None]
    s12 = resid_cov[:, 0, 1, None]
    s22 = resid_cov[:, 1, 1, None]
    omega = 2.0 * np.pi * frequencies
    p = coef.shape[1]
    z = np.exp(-1j * np.outer(omega, np.arange(1, p + 1)))
    lagpoly = np.eye(2) - np.einsum("fl,blij->bfij", z, coef)
    det = lagpoly[..., 0, 0] * lagpoly[..., 1, 1] - lagpoly[..., 0, 1] * lagpoly[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        transfer_cause = -lagpoly[..., 1, 0] / det
        transfer_own = lagpoly[..., 0, 0] / det
        rotated_own = transfer_own + transfer_cause * (s12 / s22)
        cross = (s11 - s12 * s12 / s22) * np.abs(transfer_cause) ** 2
        intrinsic = s22 * np.abs(rotated_own) ** 2
        failure = np.select(
            [
                (s22[:, 0] <= 0.0) | (s11[:, 0] <= 0.0),
                np.any(np.abs(det) < 1e-14, axis=1),
                ~(np.isfinite(cross).all(axis=1) & np.isfinite(intrinsic).all(axis=1)),
                np.any(intrinsic <= 0.0, axis=1),
            ],
            [1, 2, 3, 4],
            0,
        )
    return cross, intrinsic, failure


def oracle_null_medians(x, y, cfg):
    """The unconditional null one replicate at a time: fit_var, decompose."""
    n = x.size
    frequencies = fourier_frequencies(n)
    raw = np.full(cfg.n_replicates, np.nan)
    for b in range(cfg.n_replicates):
        rng = substream(cfg.seed, "gc-unconditional", b)
        x_star = x[stationary_bootstrap_indices(n, cfg.block_length(n), rng)]
        y_star = y[stationary_bootstrap_indices(n, cfg.block_length(n), rng)]
        try:
            model = fit_var(np.column_stack([x_star, y_star]), max_order=cfg.max_var_order)
        except RankDeficiencyError:
            continue
        cross, intrinsic, failure = complex_decompose(
            model.endo_coef[None], model.resid_cov[None], frequencies
        )
        if not failure[0]:
            raw[b] = np.median(np.log1p(cross[0] / intrinsic[0]))
    return raw


def observed_conditional(x, y, w, max_order=4):
    """The conditional measure of checked series and its projection order,
    one fit at a time: the (effect, conditioning) VAR's order, the
    least-squares projection of cause and effect on the conditioning
    series, then fit_var of the residuals and their decomposition.  Where a
    step fails it raises DegenerateInputError or NumericalError, or
    fit_var's own error."""
    order = fit_var(np.column_stack([y, w]), max_order=max_order).order
    resid, singular = _project_on_conditioning(np.column_stack([x, y])[None], w[None], order)
    if singular[0]:
        raise DegenerateInputError("singular projection")
    for series in resid[0].T:
        if np.ptp(series) == 0.0 or np.std(series) < 1e-12 * max(1.0, np.std(x)):
            raise DegenerateInputError("explained by the conditioning series")
    model = fit_var(resid[0], max_order=max_order)
    cross, intrinsic, failure = _decompose(
        model.endo_coef[None], model.resid_cov[None], fourier_frequencies(x.size)
    )
    if failure[0]:
        raise NumericalError("decomposition failed")
    return np.log1p(cross[0] / intrinsic[0]), order


def conditional_thresholds(x, y, w, cfg):
    """The conditional null's thresholds of checked series, as
    conditional_gc_spectrum takes them."""
    pair_model = fit_var(np.column_stack([y, w]), max_order=cfg.max_var_order)
    return _conditional_thresholds(x, pair_model, cfg)


def oracle_conditional_null_medians(x, y, w, cfg):
    """The conditional null one replicate at a time: the observed
    conditional measure of each simulated (effect, conditioning) pair and
    resampled cause."""
    n = x.size
    pair_model = fit_var(np.column_stack([y, w]), max_order=cfg.max_var_order)
    order = pair_model.order
    resid = pair_model.residuals - pair_model.residuals.mean(axis=0)
    m = resid.shape[0]
    rows = np.empty((cfg.n_replicates, m), dtype=np.intp)
    causes = np.empty((cfg.n_replicates, n))
    for b in range(cfg.n_replicates):
        rng = substream(cfg.seed, "gc-conditional", b)
        rows[b] = rng.integers(0, m, size=m)
        causes[b] = x[stationary_bootstrap_indices(n, cfg.block_length(n), rng)]
    simulated = simulate_var(
        pair_model.intercept, pair_model.endo_coef, resid[rows],
        np.column_stack([y[:order], w[:order]]),
    )
    raw = np.full(cfg.n_replicates, np.nan)
    for b in range(cfg.n_replicates):
        try:
            estimate, _ = observed_conditional(
                causes[b], simulated[b, :, 0], simulated[b, :, 1], cfg.max_var_order
            )
        except (RankDeficiencyError, NumericalError, DegenerateInputError):
            continue
        raw[b] = np.median(estimate)
    return raw


def spiky_pair(n=100, spikes=3, seed=3):
    """A cause that is zero but for a few weeks: some resamples miss every
    spike, and a constant column fails their fit."""
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    x[rng.choice(n, spikes, replace=False)] = rng.normal(size=spikes) + 3.0
    return x, rng.normal(size=n), rng.normal(size=n)


class TestFrequencies:
    def test_grid(self):
        freqs = fourier_frequencies(400)
        assert freqs.shape == (200,)
        assert freqs[0] == 1.0 / 400.0
        assert freqs[-1] == 0.5

    def test_odd_length(self):
        freqs = fourier_frequencies(7)
        assert_allclose(freqs, [1 / 7, 2 / 7, 3 / 7])


class TestDecomposition:
    def test_matches_closed_form_oracle(self):
        # Feedback in both directions plus correlated innovations.
        coef = np.array(
            [
                [[0.5, 0.2], [0.3, 0.4]],
                [[-0.1, 0.0], [0.15, -0.2]],
            ]
        )
        sigma = np.array([[1.0, 0.6], [0.6, 2.0]])
        freqs = fourier_frequencies(128)
        got = measure(coef, sigma, freqs)
        assert_allclose(got, oracle_measure(coef, sigma, freqs), atol=1e-12)
        assert np.all(got >= 0.0)

    def test_lag_one_shift_is_flat_log_164(self):
        # y_t = 0.8 x_{t-1} + e with unit white noise: the measure is
        # log(1 + 0.64) at every frequency.
        coef = np.array([[[0.0, 0.0], [0.8, 0.0]]])
        got = measure(coef, np.eye(2), fourier_frequencies(200))
        assert_allclose(got, np.log(1.64), rtol=1e-12)

    def test_zero_cross_coefficients_give_exact_zero(self):
        # No cause -> effect coefficients: identically zero even though the
        # innovations are correlated and the effect feeds back on the cause.
        coef = np.array([[[0.5, 0.25], [0.0, 0.4]]])
        sigma = np.array([[1.0, 0.7], [0.7, 1.5]])
        assert np.all(measure(coef, sigma, fourier_frequencies(100)) == 0.0)

    def test_estimated_spectrum_near_truth(self):
        rng = np.random.default_rng(812)
        coef = np.array([[[0.0, 0.0], [0.8, 0.0]]])
        data = simulate_pair(coef, np.eye(2), 2000, rng)
        result = unconditional_gc_spectrum(
            data[:, 0],
            data[:, 1],
            GcBootstrapConfig(n_replicates=100, seed=4),
        )
        assert np.all(result.estimate > 0.0)
        assert np.max(np.abs(result.estimate - np.log(1.64))) < 0.15


def stable_systems(rng, B, p):
    """B stable bivariate VAR(p) coefficient stacks and positive definite
    innovation covariances."""
    coef = np.empty((B, p, 2, 2))
    for b in range(B):
        coef[b] = rng.normal(scale=0.6 / p, size=(p, 2, 2))
        while spectral_radius(coef[b]) >= 0.95:
            coef[b] *= 0.9
    root = rng.normal(size=(B, 2, 2))
    return coef, root @ root.transpose(0, 2, 1) + 0.1 * np.eye(2)


class TestRealArithmetic:
    """``_decompose`` against the complex-arithmetic oracle."""

    @pytest.mark.parametrize("n", [390, 392])
    @pytest.mark.parametrize("B", [1, 32])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_complex_oracle(self, p, B, n):
        rng = np.random.default_rng([p, B, n])
        coef, cov = stable_systems(rng, B, p)
        freqs = fourier_frequencies(n)
        cross, intrinsic, failure = _decompose(coef, cov, freqs)
        want_cross, want_intrinsic, want_failure = complex_decompose(coef, cov, freqs)
        assert failure.tolist() == want_failure.tolist() == [0] * B
        assert_allclose(cross, want_cross, rtol=1e-12, atol=0)
        assert_allclose(intrinsic, want_intrinsic, rtol=1e-12, atol=0)
        assert_allclose(
            np.log1p(cross / intrinsic), np.log1p(want_cross / want_intrinsic),
            rtol=1e-12, atol=0,
        )

    def test_failure_codes_match_complex_oracle(self):
        # One system per failure code, then one that decomposes, at n = 196,
        # whose grid ends at f = 0.5, where exp(-2 pi i f) is -1.
        well = [[0.5, 0.1], [0.2, 0.3]]
        systems = [
            (well, [[0.0, 0.0], [0.0, 1.0]]),  # s11 = 0
            ([[-1.0, 0.0], [0.0, 0.3]], np.eye(2)),  # a unit root at f = 0.5
            ([[1e200, 1e200], [1e200, 1e200]], np.eye(2)),  # overflow
            # At f = 0.5 the own term's numerator is sin(pi) ~ 1.2e-16, whose
            # square times s22 underflows to zero.
            ([[-1.0, 0.5], [0.5, 0.0]], [[1.0, 0.0], [0.0, 1e-300]]),
            (well, [[1.0, 0.3], [0.3, 2.0]]),
        ]
        coef = np.array([[c] for c, _ in systems], dtype=float)
        cov = np.array([c for _, c in systems], dtype=float)
        freqs = fourier_frequencies(196)
        with np.errstate(over="ignore", invalid="ignore"):
            want = complex_decompose(coef, cov, freqs)[2]
        assert _decompose(coef, cov, freqs)[2].tolist() == want.tolist() == [1, 2, 3, 4, 0]

        # A singular polynomial at f = 0 (the lags cancel exactly) whose
        # entries near 1e155 make |det|^2 NaN at f = 0.25: code 2 still wins.
        coef = np.array([[[[1.0, 1e155], [1e155, 1.0]], [[0.0, -1e155], [-1e155, 0.0]]]])
        freqs = np.array([0.0, 0.25])
        with np.errstate(over="ignore", invalid="ignore"):
            want = complex_decompose(coef, np.eye(2)[None], freqs)[2]
        assert _decompose(coef, np.eye(2)[None], freqs)[2].tolist() == want.tolist() == [2]


class TestNullMedians:
    @pytest.mark.parametrize("n, fails", [(390, False), (392, False), (390, True)])
    def test_selection_is_numpy_median(self, monkeypatch, n, fails):
        # The medians by selection equal np.median of the measure, from the
        # same decompositions; with ``fails`` the first system decomposed
        # fails.
        from climdemand import spectral

        decompose = spectral._decompose
        calls = []

        def first_fails(*args):
            cross, intrinsic, failure = decompose(*args)
            if not calls:
                failure[0] = 3
            calls.append(1)
            return cross, intrinsic, failure

        if fails:
            monkeypatch.setattr(spectral, "_decompose", first_fails)
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(12, n, 2))
        samples[:, 1:, 1] += 0.4 * samples[:, :-1, 0]
        freqs = fourier_frequencies(n)
        got = _median_measure(_spectra(samples, 4, freqs)[1])
        calls.clear()
        path = bic_path(samples, 4)
        assert not np.isnan(path).any()
        want = np.full(12, np.nan)
        groups, _ = refit(samples, select_order(path))
        for fit in groups:
            cross, intrinsic, failure = spectral._decompose(
                lag_coefficients(fit.coef, fit.order), fit.resid_cov, freqs
            )
            ok = failure == 0
            want[fit.index[ok]] = np.median(np.log1p(cross[ok] / intrinsic[ok]), axis=1)
        assert np.isnan(got).sum() == fails
        assert got.tobytes() == want.tobytes()


class TestScaleInvariance:
    def test_measure_invariant_to_scaling(self):
        rng = np.random.default_rng(99)
        coef = np.array([[[0.4, 0.1], [0.3, 0.5]]])
        data = simulate_pair(coef, np.array([[1.0, 0.3], [0.3, 1.0]]), 600, rng)
        freqs = fourier_frequencies(600)
        base = fit_var(data, max_order=4)
        scaled = fit_var(data * np.array([250.0, 0.004]), max_order=4)
        m_base = measure(base.endo_coef, base.resid_cov, freqs)
        m_scaled = measure(scaled.endo_coef, scaled.resid_cov, freqs)
        assert np.max(np.abs(m_base - m_scaled)) < 1e-8


class TestAffineInvariance:
    @pytest.mark.parametrize("conditional", [False, True], ids=["unconditional", "conditional"])
    def test_affine_maps_keep_every_decision(self, conditional):
        # Replacing (x, y) by (3x + 5, 0.5y - 2) changes neither measure, nor
        # the null, whose resamples map the same way.  Over twelve such
        # pairs at 200 replicates the estimates moved by at most 3.3e-16 and
        # the thresholds by at most 2.2e-15 relative; the tolerances are
        # about 30 and 50 times that.  The cause enters through two lags, so
        # the measure varies over frequency and both rules split the
        # frequencies (119 and 130 unconditional, 124 and 135 conditional,
        # of 150), each at least 2e-4 from its threshold.
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=(2, 300))
        y = np.r_[0.0, 0.0, 0.3 * (x[1:-1] + x[:-2]) + 0.3 * w[1:-1]] + rng.normal(size=300)
        cfg = GcBootstrapConfig(n_replicates=200, seed=2)

        def spectrum(cause, effect):
            if conditional:
                return conditional_gc_spectrum(cause, effect, w, cfg)
            return unconditional_gc_spectrum(cause, effect, cfg)

        base, mapped = spectrum(x, y), spectrum(3.0 * x + 5.0, 0.5 * y - 2.0)
        assert 0 < base.significant_bonferroni.sum() < base.significant_pointwise.sum() < 150
        assert_array_equal(mapped.significant_pointwise, base.significant_pointwise)
        assert_array_equal(mapped.significant_bonferroni, base.significant_bonferroni)
        assert (mapped.var_order, mapped.n_replicates, mapped.n_failed) == (
            base.var_order, base.n_replicates, base.n_failed
        )
        assert_allclose(mapped.estimate, base.estimate, rtol=0, atol=1e-14)
        for field in ("threshold_pointwise", "threshold_bonferroni"):
            assert getattr(mapped, field) == pytest.approx(getattr(base, field), rel=1e-13, abs=0)


def stationary_bootstrap(values, expected_block_length, rng):
    """One stationary-bootstrap resample of a series."""
    arr = np.asarray(values, dtype=float)
    return arr[stationary_bootstrap_indices(arr.size, expected_block_length, rng)]


class TestStationaryBootstrap:
    def test_values_come_from_original(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=97)
        resample = stationary_bootstrap(series, 5.0, rng)
        assert resample.shape == series.shape
        assert np.isin(resample, series).all()

    def test_infinite_block_is_rotation(self):
        rng = np.random.default_rng(3)
        idx = stationary_bootstrap_indices(50, 1e12, rng)
        start = idx[0]
        assert_allclose(idx, (start + np.arange(50)) % 50)

    def test_mean_block_length(self):
        # 10,000 draws; blocks counted as maximal consecutive index runs.
        n, expected = 2000, 10.0
        counts = np.empty(10_000)
        rng = np.random.default_rng(123)
        for k in range(counts.size):
            idx = stationary_bootstrap_indices(n, expected, rng)
            breaks = np.count_nonzero(idx[1:] != (idx[:-1] + 1) % n)
            counts[k] = n / (breaks + 1.0)
        assert abs(counts.mean() - expected) / expected < 0.05

    def test_block_length_one_is_iid_resampling(self):
        rng = np.random.default_rng(11)
        idx = stationary_bootstrap_indices(5000, 1.0, rng)
        # Every position restarts: indices should look uniform, not serial.
        serial = np.mean(idx[1:] == (idx[:-1] + 1) % 5000)
        assert serial < 0.01

    def test_bad_block_length(self):
        with pytest.raises(InvalidInputError, match="block_length"):
            replicate_draws(0, "label", range(1), (10, 0.5))

    def test_empty_series(self):
        with pytest.raises(ShapeError, match="cannot resample an empty series"):
            replicate_draws(0, "label", range(1), (0, 3.0))


class TestThresholds:
    def test_alpha_half_is_median(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        cfg = GcBootstrapConfig(n_replicates=100, alpha=0.5, seed=21)
        thresholds = _unconditional_thresholds(x, y, cfg)
        assert thresholds.pointwise == float(np.median(thresholds.medians))

    def test_monotone_in_alpha_and_bonferroni_dominates(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        previous = -np.inf
        for alpha in (0.5, 0.25, 0.05):
            cfg = GcBootstrapConfig(n_replicates=150, alpha=alpha, seed=5)
            thresholds = _unconditional_thresholds(x, y, cfg)
            assert thresholds.pointwise >= previous
            assert thresholds.bonferroni >= thresholds.pointwise
            previous = thresholds.pointwise

    def test_deterministic_under_seed_and_threads(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=250)
        y = rng.normal(size=250)
        cfg = GcBootstrapConfig(n_replicates=120, seed=31)
        one = _unconditional_thresholds(x, y, cfg)
        again = _unconditional_thresholds(x, y, cfg)
        assert one.pointwise == again.pointwise
        assert one.bonferroni == again.bonferroni
        assert_allclose(one.medians, again.medians, rtol=0, atol=0)
        other = _unconditional_thresholds(
            x, y, GcBootstrapConfig(n_replicates=120, seed=32)
        )
        assert other.pointwise != one.pointwise

    @pytest.mark.parametrize("finite", [60, 59])
    def test_too_many_failed_replicates_is_an_error(self, monkeypatch, finite):
        # The thresholds need max(50, n_replicates // 2) finite null
        # medians: 60 of 120 here.  Replicates past the first ``finite``
        # are made to fail.
        from climdemand import spectral

        spectra = spectral._spectra
        done = []

        def failing(samples, *args):
            orders, ratio, failure = spectra(samples, *args)
            cut = max(0, finite - sum(done))
            ratio[cut:], failure[cut:] = np.nan, 5
            done.append(len(ratio))
            return orders, ratio, failure

        monkeypatch.setattr(spectral, "_spectra", failing)
        rng = np.random.default_rng(41)
        x, y = rng.normal(size=(2, 200))
        cfg = GcBootstrapConfig(n_replicates=120, seed=2)
        if finite < 60:
            with pytest.raises(NumericalError,
                               match=r"too many bootstrap replicates failed \(61 of 120\)"):
                _unconditional_thresholds(x, y, cfg)
        else:
            assert _unconditional_thresholds(x, y, cfg).n_failed == 60


class TestBatchedNull:
    @pytest.mark.parametrize("case", ["spiky", "lagged"])
    def test_medians_match_per_replicate_oracle(self, case):
        if case == "spiky":
            x, y, _ = spiky_pair()
        else:
            rng = np.random.default_rng(9)
            x = rng.normal(size=260)
            y = np.r_[0.0, 0.6 * x[:-1]] + rng.normal(size=260)
        cfg = GcBootstrapConfig(n_replicates=150, seed=4)
        oracle = oracle_null_medians(x, y, cfg)
        batched = _unconditional_thresholds(x, y, cfg)
        kept = oracle[np.isfinite(oracle)]
        assert batched.n_failed == oracle.size - kept.size
        if case == "spiky":
            assert batched.n_failed > 0
        assert batched.medians.shape == kept.shape
        assert_allclose(batched.medians, kept, rtol=1e-12, atol=0)

    def test_blocks_do_not_change_the_null(self, monkeypatch):
        x, y, _ = spiky_pair()
        cfg = GcBootstrapConfig(n_replicates=120, seed=2)
        whole = _unconditional_thresholds(x, y, cfg)
        monkeypatch.setattr(_rng, "FIT_BLOCK", 7)
        blocked = _unconditional_thresholds(x, y, cfg)
        assert_allclose(blocked.medians, whole.medians, rtol=0, atol=0)
        assert blocked.n_failed == whole.n_failed

    @pytest.mark.parametrize("case", ["spiky", "lagged"])
    def test_conditional_medians_match_per_replicate_oracle(self, case):
        if case == "spiky":
            x, y, w = spiky_pair()
        else:
            rng = np.random.default_rng(10)
            x, w = rng.normal(size=(2, 260))
            y = np.r_[0.0, 0.6 * x[:-1] + 0.3 * w[:-1]] + rng.normal(size=260)
        cfg = GcBootstrapConfig(n_replicates=150, seed=4)
        oracle = oracle_conditional_null_medians(x, y, w, cfg)
        batched = conditional_thresholds(x, y, w, cfg)
        kept = oracle[np.isfinite(oracle)]
        assert batched.n_failed == oracle.size - kept.size
        if case == "spiky":
            assert batched.n_failed > 0
        assert batched.medians.shape == kept.shape
        assert_allclose(batched.medians, kept, rtol=0, atol=0)

    def test_blocks_do_not_change_the_conditional_null(self, monkeypatch):
        x, y, w = spiky_pair()
        cfg = GcBootstrapConfig(n_replicates=120, seed=2)
        whole = conditional_thresholds(x, y, w, cfg)
        monkeypatch.setattr(_rng, "FIT_BLOCK", 7)
        blocked = conditional_thresholds(x, y, w, cfg)
        assert_allclose(blocked.medians, whole.medians, rtol=0, atol=0)
        assert blocked.n_failed == whole.n_failed

    @pytest.mark.parametrize("block", [7, 64])
    def test_recursion_blocks_do_not_change_the_conditional_spectrum(self, monkeypatch, block):
        # The (effect, conditioning) pairs are simulated a recursion block at
        # a time to bound memory; no output may depend on its size, nor on
        # how the fit blocks fall inside it.
        x, y, w = spiky_pair()
        cfg = GcBootstrapConfig(n_replicates=150, seed=2)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", 10**6)
        whole = conditional_gc_spectrum(x, y, w, cfg)
        monkeypatch.setattr(_rng, "RECURSION_BLOCK", block)
        blocked = conditional_gc_spectrum(x, y, w, cfg)
        assert whole.n_failed > 0
        assert blocked.estimate.tobytes() == whole.estimate.tobytes()
        for field in ("threshold_pointwise", "threshold_bonferroni", "n_failed", "n_replicates"):
            assert getattr(blocked, field) == getattr(whole, field), field

    def test_conditional_null_runs_within_a_memory_budget(self):
        # Three 390-point series, the screen's length, at the pipeline's 1000
        # replicates.  Simulating every replicate's (effect, conditioning)
        # pair in one recursion peaked at 13.5 MiB; a recursion block at a
        # time, with each fit block's causes indexed as it is scored, 4.9.
        # The held index draws are 1.5 MiB of that.
        rng = np.random.default_rng(31)
        x, w = rng.normal(size=(2, 390))
        y = np.r_[0.0, 0.5 * x[:-1] + 0.3 * w[:-1]] + rng.normal(size=390)
        cfg = GcBootstrapConfig(n_replicates=1000, seed=0)
        replicate_draws.cache_clear()
        peak, result = traced_peak(lambda: conditional_gc_spectrum(x, y, w, cfg))
        assert result.n_replicates == 1000
        assert peak <= 6.0 * 2**20

    @pytest.mark.parametrize("seed", [2, 6])
    def test_short_series_agrees_with_oracle(self, seed):
        # At n = 26 a projection order of 4 leaves 22 rows, too few for the
        # residual VAR at max order 4 (the rule needs more than 22): seed 6
        # has replicates at that order (the first is replicate 43, in the
        # second block), seed 2 has none.
        rng = np.random.default_rng(seed)
        x, y, w = rng.normal(size=(3, 26))
        cfg = GcBootstrapConfig(n_replicates=100, max_var_order=4, seed=seed)
        try:
            oracle = oracle_conditional_null_medians(x, y, w, cfg)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                conditional_thresholds(x, y, w, cfg)
            assert seed == 6
            return
        assert seed == 2
        batched = conditional_thresholds(x, y, w, cfg)
        assert_allclose(batched.medians, oracle[np.isfinite(oracle)], rtol=0, atol=0)

    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_replicate_is_an_error(self, monkeypatch, column):
        from climdemand import spectral

        def overflowing(*args):
            out = simulate_var(*args)
            out[40, len(args[1]) + 17, column] = np.inf
            return out

        monkeypatch.setattr(spectral, "simulate_var", overflowing)
        rng = np.random.default_rng(12)
        x, y, w = rng.normal(size=(3, 150))
        what = ("effect", "conditioning")[column]
        with pytest.raises(InvalidInputError, match=f"{what} must be finite"):
            conditional_thresholds(x, y, w, GcBootstrapConfig(n_replicates=100))

    def test_failed_replicates_are_counted(self):
        x, y, w = spiky_pair()
        cfg = GcBootstrapConfig(n_replicates=100, seed=1)
        for result in (
            unconditional_gc_spectrum(x, y, cfg),
            conditional_gc_spectrum(x, y, w, cfg),
        ):
            assert result.n_failed > 0
            assert result.n_failed + result.n_replicates == cfg.n_replicates
        clean = unconditional_gc_spectrum(np.random.default_rng(1).normal(size=100), y, cfg)
        assert clean.n_failed == 0


class TestObservedIsReplicateZero:
    @pytest.mark.parametrize("conditional", [False, True], ids=["unconditional", "conditional"])
    def test_observed_spectrum_is_a_one_sample_stack(self, conditional):
        # The null's stacked estimator, run on the observed series alone,
        # gives the spectrum's order and estimate, and its null median is
        # the estimate's median.
        rng = np.random.default_rng(24)
        x, y, w = rng.normal(size=(3, 200))
        cfg = GcBootstrapConfig(n_replicates=100, seed=3)
        freqs = fourier_frequencies(200)
        if conditional:
            result = conditional_gc_spectrum(x, y, w, cfg)
            orders, ratio, failure = _conditional_spectra(
                x[None], np.column_stack([y, w])[None], cfg.max_var_order, freqs
            )
        else:
            result = unconditional_gc_spectrum(x, y, cfg)
            orders, ratio, failure = _spectra(
                np.column_stack([x, y])[None], cfg.max_var_order, freqs
            )
        assert (orders.tolist(), failure.tolist()) == ([result.var_order], [0])
        assert np.log1p(ratio[0]).tobytes() == result.estimate.tobytes()
        assert _median_measure(ratio)[0].tobytes() == np.median(result.estimate).tobytes()


class TestUnconditionalInference:
    def test_detects_lagged_cause(self):
        rng = np.random.default_rng(2024)
        x = rng.normal(size=400)
        y = np.empty(400)
        y[0] = rng.normal()
        y[1:] = 0.8 * x[:-1] + rng.normal(size=399)
        result = unconditional_gc_spectrum(
            x, y, GcBootstrapConfig(n_replicates=300, seed=7)
        )
        assert result.significant_bonferroni.any()
        # No feedback: the reverse direction stays below the familywise bar.
        reverse = unconditional_gc_spectrum(
            y, x, GcBootstrapConfig(n_replicates=300, seed=8)
        )
        assert not reverse.significant_bonferroni.any()

    def test_result_shapes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=301)
        y = rng.normal(size=301)
        result = unconditional_gc_spectrum(
            x, y, GcBootstrapConfig(n_replicates=100, seed=0)
        )
        assert result.frequencies.shape == (150,)
        assert result.estimate.shape == (150,)
        assert result.conditioning_name is None
        assert result.significant_pointwise.dtype == bool

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            unconditional_gc_spectrum(
                np.zeros(100) + np.arange(100),
                np.arange(101),
                GcBootstrapConfig(n_replicates=100),
            )

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            unconditional_gc_spectrum(
                np.ones(200),
                np.arange(200.0),
                GcBootstrapConfig(n_replicates=100),
            )

    def test_rank_deficiency_is_named_at_the_first_failing_order(self):
        # An effect that is the lagged cause fits exactly: at order 1 only
        # the effect's residuals vanish, which the BIC path accepts; at
        # order 2 the cause's second lag repeats the effect's first, so
        # order 2 is the first whose fit fails, as fit_var names it.
        x = np.random.default_rng(3).normal(size=200)
        y = np.r_[0.0, x[:-1]]
        with pytest.raises(RankDeficiencyError, match="collinear columns: cause.l2, effect$"):
            unconditional_gc_spectrum(x, y, GcBootstrapConfig(n_replicates=100))
        with pytest.raises(RankDeficiencyError, match="collinear columns: cause.l2, effect$"):
            fit_var(np.column_stack([x, y]), names=("cause", "effect"))

    def test_spectrum_checks_the_pair_once(self, monkeypatch):
        # One check of the pair and of its sample size serves the observed
        # spectrum and the null, and neither calls fit_var.
        from climdemand import spectral

        rng = np.random.default_rng(22)
        x, y = rng.normal(size=(2, 200))
        cfg = GcBootstrapConfig(n_replicates=100, seed=5)
        model = fit_var(np.column_stack([x, y]), max_order=cfg.max_var_order)
        observed = measure(model.endo_coef, model.resid_cov, fourier_frequencies(200))
        thresholds = _unconditional_thresholds(x, y, cfg)
        calls = {"_check_pair": 0, "check_sample_size": 0, "fit_var": 0}
        for name in calls:
            def spy(*args, _real=getattr(spectral, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(spectral, name, spy)
        result = unconditional_gc_spectrum(x, y, cfg)
        assert calls == {"_check_pair": 1, "check_sample_size": 1, "fit_var": 0}
        assert result.estimate.tobytes() == observed.tobytes()
        assert result.var_order == model.order
        assert (result.threshold_pointwise, result.threshold_bonferroni) == (
            thresholds.pointwise, thresholds.bonferroni)
        assert result.n_failed == thresholds.n_failed


class TestWeeklySeriesInputs:
    """Both spectra take ``WeeklySeries`` too: names come from the series,
    and series on different week axes are rejected."""

    @staticmethod
    def panels():
        rng = np.random.default_rng(31)
        x = rng.normal(size=200)
        w = rng.normal(size=200)
        y = np.empty(200)
        y[0] = rng.normal()
        y[1:] = 0.6 * x[:-1] + rng.normal(size=199)
        columns = {"temperature": x, "drug_demand": y, "fwi": w}
        monday = dt.date(2016, 1, 4)
        weeks = [monday + dt.timedelta(days=7 * k) for k in range(201)]
        return PanelDataset(weeks[:200], columns), PanelDataset(weeks[1:], columns)

    def test_names_come_from_the_series(self):
        panel, _ = self.panels()
        cfg = GcBootstrapConfig(n_replicates=100, seed=3)
        result = unconditional_gc_spectrum(
            panel.series("temperature"), panel.series("drug_demand"), cfg
        )
        assert (result.cause_name, result.effect_name) == ("temperature", "drug_demand")
        assert result.conditioning_name is None
        conditional = conditional_gc_spectrum(
            panel.series("temperature"), panel.series("drug_demand"),
            panel.series("fwi"), cfg,
        )
        assert (conditional.cause_name, conditional.effect_name,
                conditional.conditioning_name) == ("temperature", "drug_demand", "fwi")

    def test_a_collinear_pair_is_named_by_the_caller(self):
        panel, _ = self.panels()
        heat = 2.0 * panel.column("temperature") + 1.0
        panel = PanelDataset(panel.week_starts, {**panel.columns, "heat": heat})
        cfg = GcBootstrapConfig(n_replicates=100, seed=3)
        temperature, fwi = panel.series("temperature"), panel.series("fwi")
        with pytest.raises(RankDeficiencyError, match="collinear columns: heat.l1, heat$"):
            unconditional_gc_spectrum(temperature, panel.series("heat"), cfg)
        with pytest.raises(RankDeficiencyError, match="collinear columns: effect.l1, effect$"):
            unconditional_gc_spectrum(temperature.values, heat, cfg)
        with pytest.raises(RankDeficiencyError, match="columns: heat.l1, heat$"):
            conditional_gc_spectrum(fwi, temperature, panel.series("heat"), cfg)
        with pytest.raises(RankDeficiencyError, match="columns: conditioning.l1, conditioning$"):
            conditional_gc_spectrum(fwi.values, temperature.values, heat, cfg)

    def test_shifted_week_axes_are_rejected(self):
        panel, shifted = self.panels()
        cfg = GcBootstrapConfig(n_replicates=100, seed=3)
        with pytest.raises(AlignmentError, match="different week axes"):
            unconditional_gc_spectrum(
                shifted.series("temperature"), panel.series("drug_demand"), cfg
            )
        with pytest.raises(AlignmentError, match="temperature and fwi are on different week axes"):
            conditional_gc_spectrum(
                panel.series("temperature"), panel.series("drug_demand"),
                shifted.series("fwi"), cfg,
            )


class TestConditional:
    def test_irrelevant_conditioning_matches_unconditional(self):
        rng = np.random.default_rng(606)
        coef = np.array([[[0.3, 0.0], [0.5, 0.4]]])
        data = simulate_pair(coef, np.eye(2), 2000, rng)
        w = rng.normal(size=2000)
        model = fit_var(data, max_order=4)
        uncond = measure(model.endo_coef, model.resid_cov, fourier_frequencies(2000))
        cond, _ = observed_conditional(data[:, 0], data[:, 1], w)
        assert np.max(np.abs(cond - uncond)) < 0.08

    def test_mediated_chain_is_not_conditionally_significant(self):
        # x -> w -> y: unconditional causality is there, conditional is not.
        rng = np.random.default_rng(77)
        T = 800
        x = rng.normal(size=T)
        w = np.zeros(T)
        y = np.zeros(T)
        for t in range(1, T):
            w[t] = 0.8 * x[t - 1] + 0.3 * w[t - 1] + rng.normal() * 0.5
            y[t] = 0.8 * w[t - 1] + rng.normal() * 0.5
        cfg = GcBootstrapConfig(n_replicates=200, seed=13)
        uncond = unconditional_gc_spectrum(x, y, cfg)
        assert uncond.significant_bonferroni.any()
        cond = conditional_gc_spectrum(x, y, w, cfg)
        assert not cond.significant_bonferroni.any()
        assert cond.conditioning_name == "conditioning"

    def test_direct_link_survives_conditioning(self):
        rng = np.random.default_rng(88)
        T = 800
        x = rng.normal(size=T)
        w = rng.normal(size=T)
        y = np.zeros(T)
        for t in range(1, T):
            y[t] = 0.7 * x[t - 1] + 0.3 * w[t - 1] + rng.normal() * 0.5
        cfg = GcBootstrapConfig(n_replicates=200, seed=14)
        cond = conditional_gc_spectrum(x, y, w, cfg)
        assert cond.significant_bonferroni.any()

    def test_cause_explained_by_conditioning_is_degenerate(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=400)
        y = rng.normal(size=400)
        with pytest.raises(DegenerateInputError, match="cause series is fully explained"):
            conditional_gc_spectrum(w.copy(), y, w, GcBootstrapConfig(n_replicates=100))

    def test_collinear_projection_residuals_are_named_as_fit_var_names_them(self):
        # An effect that is twice the cause plus the conditioning leaves
        # residuals whose effect is twice their cause; their VAR names its
        # variables y0 and y1, as fit_var names unnamed ones.
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=(2, 200))
        with pytest.raises(RankDeficiencyError, match="collinear columns: y1.l1, y1$"):
            conditional_gc_spectrum(x, 2.0 * x + w, w, GcBootstrapConfig(n_replicates=100))

    def test_stacked_projection_matches_per_series_least_squares(self):
        rng = np.random.default_rng(15)
        series = rng.normal(size=(9, 120, 2))
        conditioning = rng.normal(size=(9, 120))
        series[:, 1:, 1] += 0.5 * conditioning[:, :-1]
        for order in (1, 2, 4):
            members = np.arange(9)[order % 3 :: 3]
            resid, singular = _project_on_conditioning(
                series[members], conditioning[members], order
            )
            assert not singular.any()
            for i, b in enumerate(members):
                design = np.column_stack(
                    [np.ones(120 - order)]
                    + [conditioning[b, order - lag : 120 - lag] for lag in range(order + 1)]
                )
                coef, *_ = np.linalg.lstsq(design, series[b, order:], rcond=None)
                expected = series[b, order:] - design @ coef
                assert_allclose(resid[i], expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_collinear_conditioning_lags_are_degenerate(self):
        # A linear trend's lags differ by a constant: the projection design
        # is singular, which the stacked QR reports instead of solving.
        rng = np.random.default_rng(16)
        trend = np.arange(80.0)
        _, singular = _project_on_conditioning(
            rng.normal(size=(2, 80, 2)), np.stack([trend, rng.normal(size=80)]), 1
        )
        assert singular.tolist() == [True, False]
        # An alternating series fits its VAR(1) exactly, which the BIC path
        # accepts; its projection design [1, w_{t-1}, w_t] is then singular.
        alternating = np.where(np.arange(200) % 2 == 0, 1.0, -1.0)
        with pytest.raises(DegenerateInputError, match="collinear"):
            conditional_gc_spectrum(
                *rng.normal(size=(2, 200)), alternating,
                GcBootstrapConfig(n_replicates=100, max_var_order=1),
            )

    def test_conditioning_of_another_length_is_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(
            AlignmentError, match="series lengths differ: cause has 300, conditioning has 299"
        ):
            conditional_gc_spectrum(
                *rng.normal(size=(2, 300)), rng.normal(size=299),
                GcBootstrapConfig(n_replicates=100),
            )

    def test_spectrum_checks_and_fits_the_pair_once(self, monkeypatch):
        # One check of the three series and one (effect, conditioning) fit
        # serve the observed spectrum and the null; the projection
        # residuals' VAR is fitted as the null fits it, without fit_var.
        from climdemand import spectral

        rng = np.random.default_rng(21)
        x, y, w = rng.normal(size=(3, 200))
        cfg = GcBootstrapConfig(n_replicates=100, seed=4)
        observed, order = observed_conditional(x, y, w, cfg.max_var_order)
        thresholds = conditional_thresholds(x, y, w, cfg)
        calls = {"_check_triple": 0, "fit_var": 0}
        for name in calls:
            def spy(*args, _real=getattr(spectral, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(spectral, name, spy)
        result = conditional_gc_spectrum(x, y, w, cfg)
        assert calls == {"_check_triple": 1, "fit_var": 1}
        assert result.estimate.tobytes() == observed.tobytes()
        assert result.var_order == order
        assert (result.threshold_pointwise, result.threshold_bonferroni) == (
            thresholds.pointwise, thresholds.bonferroni)

    def test_zero_variance_cause_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DegenerateInputError):
            conditional_gc_spectrum(
                np.full(300, 2.5),
                rng.normal(size=300),
                rng.normal(size=300),
                GcBootstrapConfig(n_replicates=100),
            )


class TestConfig:
    def test_collects_all_problems(self):
        with pytest.raises(ConfigError) as excinfo:
            GcBootstrapConfig(n_replicates=10, alpha=0.9, max_var_order=0, seed=-1)
        assert set(excinfo.value.fields) == {
            "n_replicates",
            "alpha",
            "max_var_order",
            "seed",
        }

    def test_default_block_length(self):
        cfg = GcBootstrapConfig()
        assert cfg.block_length(400) == 8.0  # ceil(400 ** (1/3))
        assert cfg.block_length(27) == 3.0
        assert GcBootstrapConfig(expected_block_length=12.5).block_length(400) == 12.5
