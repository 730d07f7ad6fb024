"""End-to-end behavior checks with independently coded oracles.

Each test here certifies one advertised property of the package at its
stated tolerance and prints exactly one PASS/FAIL line (bypassing pytest's
capture) with the measured margins.  Spectral and subset-search oracles are
written inline with raw numpy so they share no code with the paths under
test.  Dimensions follow the reference family used across the desk
experiments: an orthonormal-column linear generator in R^100 with latent
dimension 5 and Gaussian measurements scaled so A^T A is near-isometric.
"""

import dataclasses
import itertools
import time
from pathlib import Path

import numpy as np

from genpgd import (
    ExperimentConfig,
    GeneratorSpec,
    Objective,
    OrthoBasis,
    ProblemSpec,
    ProjectionConfig,
    SolverConfig,
    SweepSpec,
    contraction_factor,
    contraction_report,
    epsilon_pgd,
    estimate_incoherence,
    estimate_rsc_rss,
    forward_batch,
    gen_problem,
    gradient,
    make_linear_generator,
    make_random_generator,
    minkowski_curvature,
    project,
    run_solve,
    run_sweep,
    subspace_incoherence,
    value,
)
from genpgd.generator import _forward_jacobian, forward, vjp
from genpgd.projection import hard_threshold
from genpgd.seeding import derive_seed, spawn_rng
from genpgd.solver import myopic_pgd

EXACT = ProjectionConfig(method="closed-form-linear")


def _line(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _family_instance(i, m=40, l=0, basis=None):
    spec = ProblemSpec(
        n=100, k=5, m=m, l=l, basis=basis,
        generator=GeneratorSpec(kind="linear"),
    )
    return gen_problem(spec, i)


def _range_spectrum(inst):
    """Raw-numpy eigenvalue extremes of (AW)^T (AW); never calls the
    package's curvature oracles."""
    W = inst.net.layers[0].weights
    lams = np.linalg.eigvalsh(W.T @ inst.A.T @ inst.A @ W)
    return float(lams[0]), float(lams[-1])


def _one_step_contraction(capsys, m, label):
    # qualified = curvature ratio below 2, where the one-step bound is a
    # genuine contraction; the bound must hold on every step above 1e-10
    t0 = time.perf_counter()
    qualified = 0
    worst_excess = -np.inf
    for i in range(20):
        inst = _family_instance(i, m=m)
        lo, hi = _range_spectrum(inst)
        if hi / lo >= 2.0:
            continue
        qualified += 1
        bound = hi / lo - 1.0 + 0.05
        cfg = SolverConfig(eta=1.0 / hi, iters=3000, stop_gap=1e-12)
        trace = epsilon_pgd(Objective("linear", inst.A, inst.y), inst.net, EXACT,
                            cfg, x_star=inst.truth.x_star)
        gaps = trace.gaps()
        for t in range(gaps.size - 1):
            if gaps[t] < 1e-10:
                break
            worst_excess = max(worst_excess, gaps[t + 1] / gaps[t] - bound)
    elapsed = time.perf_counter() - t0
    ok = qualified >= 1 and worst_excess <= 0.0 and elapsed < 10.0
    _line(capsys, label, ok,
          f"qualified {qualified}/20, worst ratio excess {worst_excess:+.4f}, "
          f"{elapsed:.2f}s")


def test_contraction_stays_under_curvature_ratio_bound(capsys):
    # m/k = 8 leaves beta/alpha below 2 on only a few instances
    _one_step_contraction(capsys, 40, "one-step contraction bound")


def test_contraction_bound_holds_with_more_measurements(capsys):
    # m = 200 puts beta/alpha below 2 on nearly every instance, so the
    # bound is checked on the whole family rather than a few outliers
    _one_step_contraction(capsys, 200, "one-step contraction bound, m=200")


def test_iterations_grow_linearly_in_log_accuracy(capsys):
    deltas = np.array([1e-2, 1e-4, 1e-6, 1e-8])
    min_r2 = np.inf
    for i in range(20):
        inst = _family_instance(i)
        _, hi = _range_spectrum(inst)
        cfg = SolverConfig(eta=1.0 / hi, iters=3000, stop_gap=1e-10)
        trace = epsilon_pgd(Objective("linear", inst.A, inst.y), inst.net, EXACT,
                            cfg, x_star=inst.truth.x_star)
        gaps = trace.gaps()
        assert gaps.min() <= deltas.min(), f"instance {i} never reached 1e-8"
        iters_to = np.array([int(np.argmax(gaps <= d)) for d in deltas], dtype=float)
        x = np.log(1.0 / deltas)
        slope, intercept = np.polyfit(x, iters_to, 1)
        ss_res = float(np.sum((iters_to - (slope * x + intercept)) ** 2))
        ss_tot = float(np.sum((iters_to - iters_to.mean()) ** 2))
        min_r2 = min(min_r2, 1.0 - ss_res / ss_tot)
    ok = min_r2 >= 0.98
    _line(capsys, "log-accuracy iteration scaling", ok, f"min R^2 {min_r2:.4f}")


def test_gap_plateau_grows_with_oracle_slack(capsys):
    slacks = (1e-4, 1e-2)
    monotone = 0
    levels = {s: [] for s in slacks}
    for i in range(10):
        inst = _family_instance(i)
        per_slack = []
        for s in slacks:
            proj = ProjectionConfig(method="closed-form-linear", degrade_slack=s)
            cfg = SolverConfig(iters=200)
            trace = epsilon_pgd(Objective("linear", inst.A, inst.y), inst.net, proj,
                                cfg, x_star=inst.truth.x_star)
            rep = contraction_report(trace)
            per_slack.append(rep.plateau_level)
            levels[s].append(rep.plateau_level)
        if None not in per_slack and per_slack[0] <= per_slack[1]:
            monotone += 1
    ok = monotone == 10
    med = ", ".join(
        f"slack {s:g} -> {np.median(v):.2e}"
        for s, v in levels.items() if v and None not in v
    )
    _line(capsys, "plateau level vs oracle slack", ok,
          f"monotone {monotone}/10, median levels: {med}")


def test_myopic_contraction_and_recovery(capsys):
    # the factor bound and the recovery requirement both apply only where
    # the computed factor is below 1; the rest are excluded and reported
    excluded = 0
    worst_excess = -np.inf
    worst_checked_dist = 0.0
    checked = 0
    all_finite = True
    for i in range(10):
        inst = _family_instance(i, m=60, l=5, basis="identity")
        W = inst.net.layers[0].weights
        lo, hi = minkowski_curvature(inst.A, W, inst.basis, 5, seed=0)
        rng = spawn_rng(9, i)
        supports = [rng.choice(100, size=5, replace=False) for _ in range(50)]
        supports.append(np.flatnonzero(
            np.abs(inst.basis.matrix.T @ inst.truth.nu_star) > 1e-12))
        mu = max(subspace_incoherence(W, inst.basis, S) for S in supports)
        rho = contraction_factor(lo, hi, mu)
        cfg = SolverConfig(mode="myopic", eta=1.0 / hi, iters=200)
        trace = myopic_pgd(Objective("linear", inst.A, inst.y), inst.net, inst.basis,
                           inst.meta.l, EXACT, cfg, x_star=inst.truth.x_star)
        gaps = trace.gaps()
        all_finite &= bool(np.all(np.isfinite(gaps)))
        if not rho < 1.0:
            excluded += 1
            continue
        checked += 1
        worst_checked_dist = max(worst_checked_dist, trace.records[-1].dist_to_truth)
        for t in range(gaps.size - 1):
            if gaps[t] < 1e-10:
                break
            worst_excess = max(worst_excess, gaps[t + 1] / gaps[t] - (rho + 0.05))
    ok = (excluded + checked == 10 and all_finite
          and (checked == 0 or (worst_excess <= 0.0 and worst_checked_dist <= 1e-4)))
    _line(capsys, "two-block contraction and recovery", ok,
          f"excluded {excluded}/10 (factor >= 1), checked {checked}, "
          f"max checked dist {worst_checked_dist:.2e}, all traces finite {all_finite}")


def test_myopic_beats_plain_pgd_under_mismatch(capsys):
    # the paper's mismatch claim: x* = G(z*) + an l-sparse deviation is out
    # of reach of the range alone, and Myopic ε-PGD's sparse block recovers it
    generators = {
        "linear": (GeneratorSpec(kind="linear"), EXACT),
        "relu": (GeneratorSpec(kind="mlp", widths=(20,)),
                 ProjectionConfig(method="latent-gd", restarts=10, inner_iters=50)),
    }
    ok, details = True, []
    for name, (generator, projection) in generators.items():
        spec = ProblemSpec(n=100, k=4, m=80, l=4, basis="random", generator=generator)
        errs = {"pgd": [], "myopic": []}
        for seed in range(500, 510):
            inst = gen_problem(spec, seed)
            for mode, err in errs.items():
                cfg = ExperimentConfig(problem=spec, projection=projection,
                                       solver=SolverConfig(mode=mode))
                summary, _ = run_solve(inst, cfg)
                err.append(summary.final_dist / np.linalg.norm(inst.truth.x_star))
        plain, myopic = np.array(errs["pgd"]), np.array(errs["myopic"])
        beats = int(np.sum(myopic < plain))
        ok &= (beats == 10 and np.median(myopic) <= 1e-6 and np.median(plain) >= 0.1)
        details.append(f"{name}: myopic below plain {beats}/10, median rel. error "
                       f"myopic {np.median(myopic):.1e} plain {np.median(plain):.3f}")
    _line(capsys, "Myopic vs plain ε-PGD under mismatch", ok, "; ".join(details))


def test_latent_descent_matches_grid_oracle(capsys):
    t0 = time.perf_counter()
    net = make_random_generator(2, 20, 2, (8,), activation="relu", seed=0)
    grid = ProjectionConfig(method="grid", grid_resolution=101)
    lgd = ProjectionConfig(method="latent-gd", restarts=10)
    rng = spawn_rng(42)
    wins = 0
    for _ in range(100):
        x = rng.standard_normal(20)
        if project(lgd, net, x).residual_sq <= project(grid, net, x).residual_sq + 1e-3:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 95 and elapsed < 30.0
    _line(capsys, "latent descent vs grid", ok,
          f"wins {wins}/100, {elapsed:.1f}s")


def test_hard_threshold_matches_exhaustive_search(capsys):
    rng = spawn_rng(6)
    worst_diff = 0.0
    for case in range(200):
        n = int(rng.integers(2, 11))
        l = min(int(rng.integers(0, 4)), n)
        B = OrthoBasis.random(n, seed=derive_seed(61, case))
        v = rng.standard_normal(n)
        d_fast = float(np.linalg.norm(v - hard_threshold(B, v, l)))
        # oracle: try every size-l support, fit coefficients exactly
        best = np.inf
        for S in itertools.combinations(range(n), l):
            cols = B.matrix[:, list(S)]
            best = min(best, float(np.linalg.norm(v - cols @ (cols.T @ v))))
        worst_diff = max(worst_diff, abs(d_fast - best))
    ok = worst_diff <= 1e-12
    _line(capsys, "thresholding vs subset search", ok,
          f"200 cases, max distance difference {worst_diff:.2e}")


def _generic_latents(net, count, seed):
    """Latents where no relu-family preactivation sits within 1e-4 of its
    kink, so central differences see a locally smooth map."""
    rng = spawn_rng(seed)
    out = []
    while len(out) < count:
        z = rng.standard_normal(net.k)
        h = z
        generic = True
        for layer in net.layers:
            pre = layer.weights @ h + layer.bias
            if layer.activation.kind in ("relu", "leaky-relu"):
                if np.any(np.abs(pre) < 1e-4):
                    generic = False
                    break
            h = layer.activation.apply(pre)
        if generic:
            out.append(z)
    return out


def test_derivatives_match_central_differences(capsys):
    h = 1e-6
    worst_grad = 0.0
    rng = spawn_rng(7)
    A = rng.standard_normal((20, 12)) / np.sqrt(20)
    for measurement in ("linear", "glm-sigmoid", "glm-exp"):
        t_ref = A @ rng.standard_normal(12)
        if measurement == "linear":
            y = t_ref + 0.1 * rng.standard_normal(20)
        elif measurement == "glm-sigmoid":
            y = 0.5 * (1.0 + np.tanh(0.5 * t_ref))
        else:
            y = np.exp(t_ref)
        obj = Objective(measurement, A, y)
        for _ in range(50):
            x = rng.standard_normal(12)
            g = gradient(obj, x)
            fd = np.empty(12)
            for j in range(12):
                e = np.zeros(12)
                e[j] = h
                fd[j] = (value(obj, x + e) - value(obj, x - e)) / (2 * h)
            worst_grad = max(worst_grad,
                             float(np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)))

    worst_vjp = worst_jac = 0.0
    nets = [
        make_linear_generator(np.linalg.qr(spawn_rng(70).standard_normal((20, 4)))[0]),
        make_random_generator(3, 15, 2, (10,), activation="relu", seed=71),
        make_random_generator(3, 15, 3, (10, 12), activation="leaky-relu", seed=72, slope=0.2),
        make_random_generator(2, 12, 3, (8, 8), activation="tanh", seed=73),
    ]
    for idx, net in enumerate(nets):
        w_rng = spawn_rng(74, idx)
        Z = np.stack(_generic_latents(net, 50, derive_seed(75, idx)))
        # the batched Jacobian pass latent-gd's lockstep LM rounds use
        for z, J in zip(Z, _forward_jacobian(net, Z)[1]):
            w = w_rng.standard_normal(net.n)
            u = vjp(net, z, w)
            fd = np.empty(net.k)
            fd_jac = np.empty((net.n, net.k))
            for j in range(net.k):
                e = np.zeros(net.k)
                e[j] = h
                diff = forward(net, z + e) - forward(net, z - e)
                fd[j] = float(w @ diff) / (2 * h)
                fd_jac[:, j] = diff / (2 * h)
            worst_vjp = max(worst_vjp,
                            float(np.linalg.norm(u - fd) / max(np.linalg.norm(u), 1e-12)))
            worst_jac = max(worst_jac,
                            float(np.linalg.norm(J - fd_jac) / max(np.linalg.norm(J), 1e-12)))
    ok = worst_grad <= 1e-5 and worst_vjp <= 1e-5 and worst_jac <= 1e-5
    _line(capsys, "derivatives vs finite differences", ok,
          f"worst gradient rel err {worst_grad:.2e}, worst vjp rel err {worst_vjp:.2e}, "
          f"worst jacobian rel err {worst_jac:.2e}")


def test_curvature_and_incoherence_estimates_track_oracles(capsys):
    contained = True
    worst_lo = worst_hi = 0.0
    for i in range(2):
        inst = _family_instance(i)
        lo, hi = _range_spectrum(inst)
        obj = Objective("linear", inst.A, inst.y)
        for est_seed in range(2):
            z = spawn_rng(est_seed).standard_normal((4000, inst.net.k))
            alpha, beta = estimate_rsc_rss(obj, forward_batch(inst.net, z.T).T)
            vals = np.array([alpha, beta])
            contained &= bool(np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9))
            worst_lo = max(worst_lo, abs(alpha - lo) / lo)
            worst_hi = max(worst_hi, abs(beta - hi) / hi)

    inst = _family_instance(0)
    W = inst.net.layers[0].weights
    B = OrthoBasis.random(100, seed=8)
    S = spawn_rng(88).choice(100, size=5, replace=False)
    mu_hat = estimate_incoherence(inst.net, B, 5, num_samples=5000, support=S)
    mu_true = float(np.linalg.svd(W.T @ B.matrix[:, S], compute_uv=False)[0])
    mu_err = abs(mu_hat - mu_true) / mu_true
    ok = contained and worst_lo <= 0.05 and worst_hi <= 0.05 and mu_err <= 0.02
    _line(capsys, "curvature/incoherence estimators vs spectra", ok,
          f"contained {contained}, curvature errs {worst_lo:.4f}/{worst_hi:.4f}, "
          f"alignment err {mu_err:.2e}")


def test_sweep_rerun_is_byte_identical(capsys):
    cfg = ExperimentConfig(
        problem=ProblemSpec(n=30, k=4, m=40, generator=GeneratorSpec(kind="linear")),
        projection=EXACT,
        solver=SolverConfig(iters=25),
        sweep=SweepSpec(m=(20, 40), noise_level=(0.001,), trials=2),
        master_seed=99,
    )
    import tempfile
    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
        run_sweep(dataclasses.replace(cfg, out_dir=d1))
        run_sweep(dataclasses.replace(cfg, out_dir=d2))
        a = (Path(d1) / "sweep.csv").read_bytes()
        b = (Path(d2) / "sweep.csv").read_bytes()
    ok = a == b
    _line(capsys, "same-seed sweep reproducibility", ok,
          f"{len(a)} bytes, identical {a == b}")
