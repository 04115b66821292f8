"""Acceptance suite: one test per shipped guarantee, with measured values printed.

Each test prints an ``ACCEPTANCE <n> (<name>): ... -> PASS/FAIL`` line (visible
with ``pytest -s``; the per-test verdicts also appear in ``pytest -v`` output).
The heavy streaming runs reuse the shipped presets, so what is verified here
is exactly what ``ivstream run --preset ...`` executes.
"""

import time

import numpy as np
import pytest

import conftest
from conftest import make_rng
from ivstream import cli, dgp, estimators as est, harness, metrics, oracle, presets


def _report(num: int, name: str, detail: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {detail} -> {verdict}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def fig2_two_stage_series():
    """The d=1 comparison cell, two-timescale algorithm, full preset settings."""
    cells = presets.build_preset("fig2", cell="dx1_dz1_rho1_sig0.5")
    spec = next(s for s in cells["dx1_dz1_rho1_sig0.5"] if s.algorithm == "two_stage_sgd")
    start = time.perf_counter()
    series = harness.run_experiment(spec)
    return series, time.perf_counter() - start


def test_criterion_1_gradient_unbiasedness():
    """Monte-Carlo mean of the two-sample gradient step matches the oracle."""
    start = time.perf_counter()
    rel = cli._check_gradient(0xACCE71, 1_000_000)
    elapsed = time.perf_counter() - start
    _report(1, "gradient unbiasedness",
            f"relative l2 error {rel:.2e} (tol 1e-2), {elapsed:.1f}s (limit 30s)",
            rel <= 1e-2 and elapsed <= 30.0)


def test_criterion_2_two_sample_rate():
    """Horizon-tuned constant steps: the error curve drops ~two decades over
    t in [1e3, 1e5] at a log-log slope near -1."""
    start = time.perf_counter()
    cells = presets.build_preset("fig1", cell="dx4_dz8_c0.1_phi_id")
    (spec,) = cells["dx4_dz8_c0.1_phi_id"]
    series = harness.run_experiment(spec)
    elapsed = time.perf_counter() - start
    it = series.iterations
    m = series.mean("dist_sq")
    window = (it >= 1_000) & (it <= 100_000)
    slope = harness.fit_slope(it[window], m[window], 1.0)
    d1e3 = m[it.searchsorted(1_000)]
    ratio = m[-1] / d1e3
    ratio_1e5 = m[it.searchsorted(100_000)] / d1e3
    ok = (-1.1 <= slope <= -0.80) and (ratio <= 1e-2) and elapsed <= 300.0
    # convergence-trend side condition: two decades into the run the error has
    # dropped at least tenfold
    ok = ok and ratio_1e5 <= 0.1
    _report(2, "two-sample constant-step rate",
            f"slope[1e3,1e5] {slope:.3f} (window [-1.1,-0.80]), final/d(1e3) {ratio:.2e} "
            f"(tol 1e-2), {elapsed:.0f}s (limit 300s)", ok)


def test_criterion_3_two_stage_rate(fig2_two_stage_series):
    """Two-timescale schedules with exponent 1 - iota/2: last-decade slope."""
    series, elapsed = fig2_two_stage_series
    slope = harness.fit_slope(series.iterations, series.mean("dist_sq"), 0.2)
    ok = (-1.1 <= slope <= -0.7) and elapsed <= 300.0
    _report(3, "two-timescale polynomial rate",
            f"last-decade slope {slope:.3f} (window [-1.1,-0.7]), {elapsed:.0f}s (limit 300s)", ok)


def test_criterion_4_divergence_comparison():
    """Far-off first-stage start: the plug-in residual variant blows up before
    recovering while the instrument-predicted variant stays convergent."""
    start = time.perf_counter()
    cells = presets.build_preset("fig3")
    specs = {s.algorithm: s for s in cells["default"]}
    series_ts = harness.run_experiment(specs["two_stage_sgd"])
    series_dr = harness.run_experiment(specs["direct_sgd"])
    elapsed = time.perf_counter() - start
    it = series_ts.iterations
    m_ts = series_ts.mean("dist_sq")
    m_dr = series_dr.mean("dist_sq")
    dr_peak = float(m_dr[it <= 10_000].max())
    ts_final = float(m_ts[-1])
    ok = dr_peak > 1e2 and ts_final <= 1e-3 and elapsed <= 180.0
    _report(4, "plug-in divergence vs two-timescale stability",
            f"plug-in peak(dist_sq, t<=1e4) {dr_peak:.3g} (>1e2), stable final {ts_final:.3g} "
            f"(<=1e-3), {elapsed:.0f}s (limit 180s)", ok)


def test_criterion_5_sherman_morrison_invariants():
    """U and V stay exact inverses of the accumulated moment matrices."""
    start = time.perf_counter()
    dev_u, dev_v = cli._check_sherman_morrison(0xACCE75)
    elapsed = time.perf_counter() - start
    ok = dev_u <= 1e-8 and dev_v <= 1e-8 and elapsed <= 5.0
    _report(5, "Sherman-Morrison invariants",
            f"max |U A_U - I| {dev_u:.2e}, max |V A_V - I| {dev_v:.2e} (tol 1e-8), "
            f"{elapsed:.2f}s (limit 5s)", ok)


def test_criterion_6_closed_form_recovery():
    """theta_closed equals the planted parameter on every linear grid cell."""
    start = time.perf_counter()
    cfgs = []
    for dims in ((1, 1), (8, 16)):
        for rho in (1.0, 4.0):
            for sig in (0.5, 1.0):
                cfgs.append(dgp.endogenous_linear_config(dims[0], dims[1], rho=rho, sigma_eps=sig))
    for dims in ((4, 8), (8, 16)):
        for c in (0.1, 1.0):
            cfgs.append(dgp.shared_confounder_config(dims[0], dims[1], c=c, phi="identity"))
    cfgs.append(dgp.endogenous_linear_config(1, 1, rho=4.0, sigma_eps=1.0,
                                             theta_star=np.array([1.0]),
                                             gamma_star=np.array([[-1.0]])))
    worst = max(float(np.abs(oracle.summarize(c).theta_closed - c.theta_star).max()) for c in cfgs)
    elapsed = time.perf_counter() - start
    _report(6, "closed-form recovery",
            f"worst max-norm error {worst:.2e} over {len(cfgs)} linear cells (tol 1e-10), "
            f"{elapsed:.2f}s (limit 1s)",
            worst <= 1e-10 and elapsed <= 1.0)


def test_criterion_7_test_mse_floor(fig2_two_stage_series):
    """Known-parameter MSE floor is the outcome noise variance, and the
    streamed estimate lands within 10% of it on the shared test sets."""
    cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
    floor = metrics.test_mse(cfg.theta_star, dgp.test_set(make_rng(0xACCE77), cfg, 1_000_000))
    series, _ = fig2_two_stage_series
    final_mse = float(series.mean("test_mse")[-1])
    oracle_mse = float(series.mean("oracle_mse")[-1])
    rel = abs(final_mse - oracle_mse) / oracle_mse
    ok = 0.49 <= floor <= 0.51 and rel <= 0.10
    _report(7, "test-MSE floor",
            f"MC floor {floor:.4f} (in [0.49, 0.51]); final test MSE {final_mse:.4f} vs "
            f"oracle {oracle_mse:.4f}, gap {rel:.2%} (tol 10%)", ok)


def test_criterion_8_determinism_across_workers(tmp_path, monkeypatch):
    """Identical seeds give byte-identical CSVs whether trials run alone or in
    lockstep groups (group size 1 vs the default: one group of all 10 trials)."""
    blobs = []
    for group_size in (1, harness.GROUP_SIZE):
        monkeypatch.setattr(harness, "GROUP_SIZE", group_size)
        out = tmp_path / f"group_{group_size}"
        rc = cli.main(["run", "--preset", "fig3", "--out", str(out),
                       "--trials", "10", "--iters", "20000"])
        assert rc == 0
        blobs.append(tuple(sorted((p.name, p.read_bytes()) for p in out.glob("*.csv"))))
    ok = blobs[0] == blobs[1]
    _report(8, "determinism across lockstep group sizes",
            f"{len(blobs[0])} CSV files byte-identical for group size 1 vs 10: {ok}", ok)


def test_criterion_9_hand_step_oracles():
    """Single-step updates reproduce the hand-evaluated values exactly.

    Derivations (hand arithmetic on the update formulas):
    * two-sample: theta=(1,0), x=(1,1), y=3, x'=(2,0), a=0.1:
      residual 1-3 = -2, theta' = (1,0) + 0.2*(2,0) = (1.4, 0).
    * two-timescale: theta=0, gamma=2, z=1, x=3, y=5, a=b=0.1:
      theta' = 0 - 0.1*2*(0-5) = 1, gamma' = 2 - 0.1*(2-3) = 2.1.
    * plug-in: theta' = 0 - 0.1*2*(3*0-5) = 1, same gamma' = 2.1.
    * streaming 2SLS: theta=0, gamma=1, U=V=10 (lam=0.1), z=1, x=2, y=3:
      V' = 10 - 100/11 = 10/11; gamma' = 1 + (10/11)(2-1) = 21/11;
      w = 1 so U' = 10/11; theta' = 0 + (10/11)(3-0) = 30/11.
    """
    checks = []

    th = est.two_sample_update(np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                               np.array([2.0, 0.0]), 3.0, 0.1)
    checks.append(("two_sample theta", float(th[0]), 1.4))
    checks.append(("two_sample theta[1]", float(th[1]), 0.0))

    th, g = est.two_stage_update(np.array([0.0]), np.array([[2.0]]),
                                 np.array([1.0]), np.array([3.0]), 5.0, 0.1, 0.1)
    checks.append(("two_stage theta", float(th[0]), 1.0))
    checks.append(("two_stage gamma", float(g[0, 0]), 2.1))

    th, g = est.direct_residual_update(np.array([0.0]), np.array([[2.0]]),
                                       np.array([1.0]), np.array([3.0]), 5.0, 0.1, 0.1)
    checks.append(("plug-in theta", float(th[0]), 1.0))
    checks.append(("plug-in gamma", float(g[0, 0]), 2.1))

    th, g, u, v = est.online_2sls_update(np.array([0.0]), np.array([[1.0]]),
                                         np.array([[10.0]]), np.array([[10.0]]),
                                         np.array([1.0]), np.array([2.0]), 3.0)
    checks.append(("2sls theta", float(th[0]), 30.0 / 11.0))
    checks.append(("2sls gamma", float(g[0, 0]), 21.0 / 11.0))
    checks.append(("2sls U", float(u[0, 0]), 10.0 / 11.0))
    checks.append(("2sls V", float(v[0, 0]), 10.0 / 11.0))

    worst = 0.0
    for name, got, want in checks:
        err = abs(got - want) / max(abs(want), 1e-300) if want != 0.0 else abs(got)
        worst = max(worst, err)
        assert err <= 2e-15, f"{name}: got {got!r}, want {want!r}"
    _report(9, "hand-step oracles",
            f"{len(checks)} single-step values exact to 15 significant digits "
            f"(worst relative error {worst:.1e})", True)
