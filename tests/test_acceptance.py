"""Top-level acceptance checks.

Each check prints a single ``[PASS]``/``[FAIL]`` line carrying the measured
quantities and pinned tolerance; the collected lines are echoed again at the
end of the run (see the terminal-summary hook in conftest). Tolerances here
are contracts — a red line means the claim is not met on this machine, and
the measured values in the line say by how much.
"""

import time

import numpy as np
import pytest

from eitkit.forward import (
    add_noise,
    assemble_stiffness,
    pattern_pairs,
    signed_difference,
    simulate_frame,
    solve_potentials,
)
from eitkit.inverse import (
    XUpdateSolver,
    build_difference_operators,
    reconstruct_fotv,
    reconstruct_nwatv,
    soft_threshold,
    z_update,
)
from eitkit.mesh import generate_disk_mesh, place_electrodes, raster_extent, rasterize
from eitkit.metrics import relative_error, score
from eitkit.phantom import assign_conductivity, lung_model
from eitkit.pipeline import phantom_truth_image

ACCEPTANCE_LINES = []  # echoed by conftest at the end of the run

RES = 256
RHO = 1e-10  # the shipped coupling weight, that of the x_update fixture
SHIPPED = dict(lam=5e-13, delta=0.01, max_iters=20, tol=1e-5)
# one penalty grid for tuning both solvers in 5b, as multiples of SHIPPED["lam"]
PENALTY_FACTORS = (1e-2, 1e-1, 1.0, 1e1, 1e2)


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def _two_point_disk_potential(nodes, src, snk, current=1.0, sigma=1.0):
    # independent closed form for two boundary point sources on a disk
    d_src = np.linalg.norm(nodes - src, axis=1)
    d_snk = np.linalg.norm(nodes - snk, axis=1)
    return current / (np.pi * sigma) * (np.log(d_snk) - np.log(d_src))


def _hop_mask(mesh, seeds, hops):
    adj = [[] for _ in range(mesh.n_nodes)]
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            adj[tri[a]].append(tri[b])
            adj[tri[b]].append(tri[a])
    dist = np.full(mesh.n_nodes, np.iinfo(np.int32).max)
    frontier = list(seeds)
    for s in seeds:
        dist[s] = 0
    d = 0
    while frontier and d < hops:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] > d:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist <= hops


def _image_re_series(mesh, history, truth, sigma0=1.0, res=RES):
    return [
        relative_error(rasterize(mesh, sigma0 + row, res), truth) for row in history
    ]


def test_acceptance_1_forward_accuracy():
    t0 = time.perf_counter()
    errs = []
    for target in (16384, 32768):
        mesh = generate_disk_mesh(0.1, target)
        layout = place_electrodes(mesh, 16)
        k = assemble_stiffness(mesh, np.full(mesh.n_elements, 1.0))
        u = solve_potentials(k, layout, current=1.0).potentials[:, 0]
        keep = ~_hop_mask(mesh, [layout.node_ids[0], layout.node_ids[1]], 2)
        exact = _two_point_disk_potential(
            mesh.nodes[keep], mesh.nodes[layout.node_ids[0]], mesh.nodes[layout.node_ids[1]]
        )
        diff = u[keep] - exact
        diff -= diff.mean()
        errs.append(np.linalg.norm(diff) / np.linalg.norm(exact - exact.mean()))
    elapsed = time.perf_counter() - t0
    ok = errs[0] < 0.02 and errs[1] < errs[0] and elapsed < 5.0
    _report(
        1,
        ok,
        f"forward error vs closed form {errs[0]:.4%} at 16k elements "
        f"(tolerance 2%), {errs[1]:.4%} after refinement "
        f"(must decrease), {elapsed:.2f} s (budget 5 s)",
    )
    assert errs[0] < 0.02
    assert errs[1] < errs[0]
    assert elapsed < 5.0


def test_acceptance_2_reciprocity_and_scaling(coarse):
    t0 = time.perf_counter()
    n = coarse.mesh.n_elements
    base = simulate_frame(coarse.mesh, coarse.layout, np.full(n, 1.0))
    idx = {pair: k for k, pair in enumerate(pattern_pairs(16))}
    scale = np.abs(base).max()
    worst_recip = max(
        abs(base[idx[(j, i)]] - base[idx[(i, j)]]) for (j, i) in idx
    )
    worst_scaling = 0.0
    for c in (0.5, 2.0, 10.0):
        frame_c = simulate_frame(
            coarse.mesh, coarse.layout, np.full(n, c)
        )
        want = base / c
        worst_scaling = max(
            worst_scaling, np.abs(frame_c - want).max() / np.abs(want).max()
        )
    elapsed = time.perf_counter() - t0
    ok = worst_recip <= 1e-8 * scale and worst_scaling <= 1e-10 and elapsed < 10.0
    _report(
        2,
        ok,
        f"reciprocity mismatch {worst_recip:.3e} over 208 patterns "
        f"(tolerance {1e-8 * scale:.3e}), conductivity-scaling error "
        f"{worst_scaling:.3e} for c in {{0.5, 2, 10}} (tolerance 1e-10), "
        f"{elapsed:.2f} s (budget 10 s)",
    )
    assert worst_recip <= 1e-8 * scale
    assert worst_scaling <= 1e-10
    assert elapsed < 10.0


def test_acceptance_3_linearization_fidelity(coarse, model7):
    predicted = coarse.s @ model7.delta_true
    observed = model7.dv_clean
    resid = np.linalg.norm(predicted - observed) / np.linalg.norm(observed)
    ok = resid < 0.15
    _report(
        3,
        ok,
        f"10% two-inclusion contrast: linearized prediction misses the "
        f"two-grid simulated difference by {resid:.2%} (tolerance 15%)",
    )
    assert resid < 0.15


def test_acceptance_4_shrinkage_closed_form():
    def grid_argmin(w, g, step=1e-6):
        # coarse-to-fine brute force on the strictly convex scalar objective
        span = abs(w) + g + 1.0
        coarse_grid = np.linspace(-span, span, 4001)
        fc = (coarse_grid - w) ** 2 + 2 * g * np.abs(coarse_grid)
        c0 = coarse_grid[np.argmin(fc)]
        width = span / 2000
        fine = np.arange(c0 - 2 * width, c0 + 2 * width + step, step)
        ff = (fine - w) ** 2 + 2 * g * np.abs(fine)
        return fine[np.argmin(ff)]

    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        w = rng.uniform(-3.0, 3.0)
        p = 10.0 ** rng.uniform(-2, 2)
        ratio = 10.0 ** rng.uniform(-4, 1)
        got = z_update(np.array([w, 0.0]), np.array([p]), lam=ratio, rho=1.0)[0]
        want = grid_argmin(w, ratio * p)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.05e-6 and elapsed < 5.0
    _report(
        4,
        ok,
        f"closed-form shrinkage vs brute-force grid minimizer: worst gap "
        f"{worst:.2e} over 1000 random triples (grid resolution 1e-6), "
        f"{elapsed:.2f} s (budget 5 s)",
    )
    assert worst <= 1.05e-6
    assert elapsed < 5.0


@pytest.fixture(scope="module")
def standard_instance(coarse, model7, x_update):
    """Reconstructions of the standard two-lung instance at 50 dB noise:
    the weighted solver at shipped parameters, plus both the weighted
    solver and the first-order baseline tuned against the true image over
    the same penalty grid (``PENALTY_FACTORS`` times the shipped penalty;
    the shipped weighted run is reused for factor 1)."""
    t0 = time.perf_counter()
    truth = phantom_truth_image(lung_model(7), raster_extent(coarse.mesh), RES, 0.1)
    result = reconstruct_nwatv(x_update, model7.dv_noisy, **SHIPPED)
    re_series = _image_re_series(coarse.mesh, result.history, truth)

    def tune(solver):
        best = None
        for factor in PENALTY_FACTORS:
            lam = SHIPPED["lam"] * factor
            if solver is reconstruct_nwatv and factor == 1.0:
                re = re_series[-1]
            else:
                res = solver(x_update, model7.dv_noisy, **{**SHIPPED, "lam": lam})
                re = relative_error(rasterize(coarse.mesh, 1.0 + res.final, RES), truth)
            if best is None or re < best[1]:
                best = (lam, re)
        return best

    nwatv_best = tune(reconstruct_nwatv)
    fotv_best = tune(reconstruct_fotv)
    elapsed = time.perf_counter() - t0
    final_image = rasterize(coarse.mesh, 1.0 + result.final, RES)
    return dict(
        truth=truth,
        re_series=re_series,
        final_image=final_image,
        nwatv_best_lam=nwatv_best[0],
        nwatv_best_re=nwatv_best[1],
        fotv_best_lam=fotv_best[0],
        fotv_best_re=fotv_best[1],
        elapsed=elapsed,
    )


def test_acceptance_5a_error_decreases(standard_instance):
    re1 = standard_instance["re_series"][0]
    re20 = standard_instance["re_series"][-1]
    elapsed = standard_instance["elapsed"]
    ok = re20 < re1 and elapsed < 30.0
    _report(
        "5a",
        ok,
        f"image relative error falls from {re1:.5f} at iteration 1 to "
        f"{re20:.5f} at iteration 20; whole instance took {elapsed:.1f} s "
        f"(budget 30 s)",
    )
    assert re20 < re1
    assert elapsed < 30.0


def test_acceptance_5b_beats_tuned_first_order(standard_instance):
    re_n = standard_instance["nwatv_best_re"]
    re_f = standard_instance["fotv_best_re"]
    re_shipped = standard_instance["re_series"][-1]
    ok = re_n <= re_f
    _report(
        "5b",
        ok,
        f"final relative error, both solvers tuned over the same "
        f"{len(PENALTY_FACTORS)}-point penalty grid: weighted solver "
        f"{re_n:.8f} (best penalty {standard_instance['nwatv_best_lam']:.1e}) "
        f"vs first-order baseline {re_f:.8f} (best penalty "
        f"{standard_instance['fotv_best_lam']:.1e}); for information, the "
        f"weighted solver at the shipped penalty {SHIPPED['lam']:.1e} gives "
        f"{re_shipped:.8f}, {(re_shipped - re_f) / re_f:+.2%} against the "
        f"tuned baseline",
    )
    assert re_n <= re_f


def test_acceptance_5c_inclusion_overlap(standard_instance):
    img = standard_instance["final_image"]
    truth = standard_instance["truth"]
    finite = np.isfinite(img) & np.isfinite(truth)
    thr = (np.nanmax(img) + np.nanmin(img)) / 2.0
    rec_mask = finite & (img >= thr)
    true_mask = finite & (truth > 1.05)

    step = 2 * 0.1 / RES
    xs = -0.1 + step * (np.arange(RES) + 0.5)
    left = np.broadcast_to(xs < 0, img.shape)

    dices = []
    for side in (left, ~left):
        a = rec_mask & side
        b = true_mask & side
        dices.append(2 * np.sum(a & b) / (np.sum(a) + np.sum(b)))
    ok = all(d >= 0.5 for d in dices)
    _report(
        "5c",
        ok,
        f"midpoint-threshold overlap with the true inclusions: Dice "
        f"{dices[0]:.3f} (left) / {dices[1]:.3f} (right), required >= 0.5",
    )
    assert all(d >= 0.5 for d in dices)


def test_acceptance_6_parameter_sweep(coarse, model7, x_update):
    t0 = time.perf_counter()
    spec10 = lung_model(10)
    sigma10 = assign_conductivity(model7.fine_mesh, spec10)
    v_pert = simulate_frame(model7.fine_mesh, model7.fine_layout, sigma10)
    dv = add_noise(
        signed_difference(model7.v_reference, v_pert), 50.0, seed=42
    )
    truth = phantom_truth_image(spec10, raster_extent(coarse.mesh), RES, 0.1)

    ratios = 5e-3 * np.logspace(-2, 2, 7)
    deltas = np.logspace(-3, -1, 5)
    grid = np.empty((len(ratios), len(deltas)))
    for i, ratio in enumerate(ratios):
        for j, d in enumerate(deltas):
            res = reconstruct_nwatv(x_update, dv, **{**SHIPPED, "lam": ratio * RHO, "delta": d})
            grid[i, j] = relative_error(
                rasterize(coarse.mesh, 1.0 + res.final, RES), truth
            )
    elapsed = time.perf_counter() - t0

    row_best = grid.min(axis=1)
    best = int(np.argmin(row_best))
    interior = 0 < best < len(ratios) - 1
    at_best = grid[best]
    spread = (at_best.max() - at_best.min()) / at_best.min()
    ok = interior and spread < 0.20 and elapsed < 300.0
    _report(
        6,
        ok,
        f"7x5 sweep: best coupling ratio at grid index {best} of 0..6 "
        f"(interior minimum required); error spread across the weight-floor "
        f"decades at that ratio {spread:.2%} (tolerance 20%); "
        f"{elapsed:.1f} s (budget 300 s)",
    )
    assert interior
    assert spread < 0.20
    assert elapsed < 300.0


def test_acceptance_7_per_iteration_cost(model7, x_update):
    def mean_ms(fn):
        best = np.inf
        for _ in range(3):
            result = fn(x_update, model7.dv_noisy, **SHIPPED)
            best = min(best, float(np.mean(result.wall_ms)))
        return best

    mean_ms(reconstruct_nwatv)  # warm caches before timing
    nw = mean_ms(reconstruct_nwatv)
    fo = mean_ms(reconstruct_fotv)
    ratio = nw / fo
    ok = 0.5 <= ratio <= 2.0
    _report(
        7,
        ok,
        f"per-iteration wall time {nw:.2f} ms (weighted) vs {fo:.2f} ms "
        f"(first-order), ratio {ratio:.2f} (required within 2x)",
    )
    assert 0.5 <= ratio <= 2.0


def test_acceptance_8_invariants_and_determinism(coarse, model7, x_update):
    t0 = time.perf_counter()
    checks = []

    # constant fields are invisible to the difference operators
    rng = np.random.default_rng(11)
    for _ in range(3):
        mesh = generate_disk_mesh(rng.uniform(0.05, 1.5), int(rng.integers(64, 2000)))
        d = build_difference_operators(mesh)
        checks.append(np.abs(d @ np.ones(mesh.n_elements)).max() == 0.0)

    # masked reconstruction never leaks outside the mask
    mask = np.zeros(coarse.mesh.n_elements, dtype=bool)
    mask[coarse.mesh.element_centroids[:, 0] < 0] = True
    res_m = reconstruct_nwatv(x_update, model7.dv_noisy, **{**SHIPPED, "max_iters": 5}, mask=mask)
    checks.append(np.all(res_m.history[:, ~mask] == 0.0))

    # shrinkage: output keeps the input sign and kills sub-threshold entries
    w = rng.normal(size=500)
    p = np.exp(rng.normal(size=250))  # one weight per element, for its x and y rows
    z = z_update(w, p, lam=0.3, rho=1.0)
    g = 0.3 * np.concatenate([p, p])
    checks.append(np.all(z * w >= 0))
    checks.append(np.all(z[np.abs(w) <= g] == 0.0))
    x = rng.normal(size=500) * 10
    t = np.abs(rng.normal(size=500))
    checks.append(
        np.array_equal(soft_threshold(x, t), np.sign(x) * np.maximum(np.abs(x) - t, 0.0))
    )

    # metric identities
    img = rasterize(coarse.mesh, 1.0 + model7.delta_true, 64)
    checks.append(relative_error(img, img) == 0.0)
    checks.append(relative_error(np.zeros_like(img), img) == 1.0)
    checks.append(score(img, img)[1] == float("inf"))
    checks.append(abs(score(2 * img, 2 * img + 0.1)[1] - score(img, img + 0.05)[1]) < 1e-9)

    # bit-identical repeat runs
    r1 = reconstruct_nwatv(x_update, model7.dv_noisy, **SHIPPED)
    r2 = reconstruct_nwatv(XUpdateSolver(coarse.s, coarse.d, RHO), model7.dv_noisy, **SHIPPED)
    checks.append(np.array_equal(r1.history, r2.history))

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 120.0
    _report(
        8,
        ok,
        f"{sum(checks)}/{len(checks)} invariant re-checks hold (difference-"
        f"operator nullspace, mask confinement, shrinkage sign/threshold "
        f"algebra, metric identities, bit-identical repeat runs) in "
        f"{elapsed:.1f} s; module property suites run with the full test set",
    )
    assert all(checks)
    assert elapsed < 120.0
