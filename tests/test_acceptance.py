"""Top-level behavioral acceptance checks, one per numbered claim.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them); the asserted thresholds are the contract, the prints are the
operator-facing record.  These are intentionally end-to-end: they go
through the public API or the command line, not through internals.
"""

import dataclasses
import math
import time

import numpy as np

from mazecells import (
    Arena,
    FiringParams,
    FrameTransform,
    GridCellParams,
    Pose,
    SynapseState,
    WalkParams,
    ZoneDisc,
    change_frame,
    change_frame_inverse,
    coverage,
    default_ini,
    episode_config,
    gridness,
    halfmax_area_bins,
    largest_component_fraction,
    lattice_basis,
    nearest_center,
    nearest_center_bruteforce,
    nearest_peak_angles,
    oja_update,
    parse_config,
    peak_to_mean,
    phase_offset,
    place_activity_at,
    rate_map,
    rates_at,
    raw_firing,
    run_episode,
    spatial_autocorrelogram,
    vibration_magnitude,
    walk_trajectory,
)
from mazecells._kernels import brute_force, nearest_batch
from mazecells.cli import main

BOUNDS = (-1.3, 1.3, -1.3, 1.3)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def _default_walk_positions(ticks: int, seed: int = 0) -> np.ndarray:
    arena = Arena(radius=1.3)
    return walk_trajectory(arena, WalkParams(), ticks, Pose(0.0, 0.0, 0.0), seed=seed)[:, :2]


def _max_consecutive(flags: np.ndarray) -> int:
    best = cur = 0
    for f in flags:
        cur = cur + 1 if f else 0
        best = max(best, cur)
    return best


def test_criterion_1_hexagonal_rate_map():
    t0 = time.perf_counter()
    cell = GridCellParams(1.0, math.pi / 4.0, 0.5, 0.0)
    fp = FiringParams(kappa=5.0, zeta=0.3)
    pos = _default_walk_positions(100_000)
    rm = rate_map(pos, rates_at(pos, cell, fp), 0.05, BOUNDS)
    ac = spatial_autocorrelogram(rm)
    score = gridness(ac, 0.5 * cell.spacing, 1.5 * cell.spacing)
    angles = nearest_peak_angles(ac)
    gaps = np.append(np.diff(angles), 360.0 - (angles[-1] - angles[0]))
    cov = coverage(pos, 0.05, 1.3)
    elapsed = time.perf_counter() - t0

    ok = (
        score > 0.4
        and angles.shape == (6,)
        and bool(np.all(np.abs(gaps - 60.0) <= 10.0))
        and cov > 0.9
        and elapsed < 60.0
    )
    _report(
        1,
        "hexagonal firing on the default walk",
        ok,
        f"gridness {score:.3f} > 0.4, peak gaps {np.round(gaps, 1).tolist()} deg, "
        f"coverage {cov:.3f}, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_nearest_center_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000
    all_exact = True
    for _ in range(20):
        g = GridCellParams(
            rng.uniform(0.3, 1.5),
            rng.uniform(0.0, math.pi / 3.0),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        b = lattice_basis(g)
        off = phase_offset(g)
        px = rng.uniform(-8.0, 8.0, n)
        py = rng.uniform(-8.0, 8.0, n)
        cx, cy, d = np.empty(n), np.empty(n), np.empty(n)
        mi, ni = np.empty(n, np.int64), np.empty(n, np.int64)
        bcx, bcy, bd = np.empty(n), np.empty(n), np.empty(n)
        bmi, bni = np.empty(n, np.int64), np.empty(n, np.int64)
        args = (px, py, b[0, 0], b[1, 0], b[0, 1], b[1, 1], off.x, off.y)
        nearest_batch(*args, cx, cy, d, mi, ni)
        brute_force(*args, 50, bcx, bcy, bd, bmi, bni)
        all_exact &= bool(
            (mi == bmi).all()
            and (ni == bni).all()
            and (cx == bcx).all()
            and (cy == bcy).all()
            and (d == bd).all()
        )
        # the scalar entry points agree with the batched kernels
        for i in range(0, n, 1000):
            c1, d1 = nearest_center((px[i], py[i]), g)
            c2, d2 = nearest_center_bruteforce((px[i], py[i]), g, max_index=50)
            all_exact &= (c1, d1) == (c2, d2) and (c1.x, c1.y, d1) == (cx[i], cy[i], d[i])
    elapsed = time.perf_counter() - t0
    ok = all_exact and elapsed < 30.0
    _report(
        2,
        "windowed lattice search equals exhaustive search",
        ok,
        f"200,000 points x 20 random lattices exact, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_formula_exactness():
    vib_345 = vibration_magnitude((3.0, 4.0, 9.81))
    vib_rest = vibration_magnitude((0.0, 0.0, 9.81))

    rng = np.random.default_rng(7)
    worst_raw = 0.0
    for _ in range(1000):
        g = GridCellParams(rng.uniform(0.1, 5.0), 0.0, 0.0, 0.0)
        f = FiringParams(rng.uniform(0.5, 30.0), rng.uniform(0.05, 0.9))
        worst_raw = max(worst_raw, abs(raw_firing(f.zeta * g.spacing, g, f)))
    exact_at_unit = raw_firing(0.3, GridCellParams(1.0, 0.0, 0.0, 0.0), FiringParams(5.0, 0.3))

    rng = np.random.default_rng(11)
    worst_rt = 0.0
    for _ in range(10_000):
        t = FrameTransform(
            rng.uniform(-math.pi, math.pi - 1e-9),
            rng.uniform(-10.0, 10.0),
            rng.uniform(-10.0, 10.0),
        )
        p = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        q = change_frame(p, t)
        r = change_frame_inverse((q.x, q.y), t)
        worst_rt = max(worst_rt, math.hypot(r.x - p[0], r.y - p[1]))

    ok = (
        vib_345 == 5.0
        and vib_rest == 0.0
        and exact_at_unit == 0.0
        and worst_raw < 1e-14
        and worst_rt < 1e-9
    )
    _report(
        3,
        "sensor and firing formulas are exact",
        ok,
        f"3-4-5 -> {vib_345}, rest -> {vib_rest}, |raw(zeta*s)| <= {worst_raw:.1e}, "
        f"frame round-trip <= {worst_rt:.1e} m over 10,000 transforms",
    )


def test_criterion_4_oja_convergence_and_bounds():
    w = 0.0
    reached = None
    for it in range(1, 301):
        w = oja_update(SynapseState(w), 1.0, 1, 0.05).w_color
        if abs(w - 1.0) < 1e-6:
            reached = it
            break

    fixed_exact = all(
        oja_update(SynapseState(x), x, 1, 0.05).w_color == x for x in (0.0, 0.25, 0.3, 1.0)
    )

    rng = np.random.default_rng(3)
    bounded = True
    for _ in range(10_000):
        wn = oja_update(
            SynapseState(rng.uniform(0.0, 1.0)),
            rng.uniform(0.0, 1.0),
            int(rng.integers(0, 2)),
            rng.uniform(0.0, 1.0 - 1e-12),
        ).w_color
        bounded &= 0.0 <= wn <= 1.0

    ok = reached is not None and fixed_exact and bounded
    _report(
        4,
        "weight recurrence converges and stays bounded",
        ok,
        f"|w-1| < 1e-6 after {reached} iterations (<= 300), fixed point exact, "
        f"10,000 random updates in [0,1]",
    )


def test_criterion_5_reflex_avoidance_noise_free():
    # A noise-free training setup with zones placed fully inside the arena,
    # so the escape step cannot collide with the boundary mid-avoidance.
    rc = parse_config(default_ini())
    arena = Arena(
        radius=1.3,
        zones=(
            ZoneDisc(0.7, 0.35, 0.2, 8.0),
            ZoneDisc(0.7, -0.35, 0.2, 8.0),
            ZoneDisc(0.35, 0.0, 0.2, 8.0),
        ),
        walls=(),
    )
    reflex_ok = True
    runs_ok = True
    encounters = 0
    worst_run = 0
    for seed in range(5):
        cfg = dataclasses.replace(
            episode_config(rc, "train", seed=seed),
            arena=arena,
            noise_sigma=0.0,
            jitter_sigma=0.0,
        )
        log = run_episode(cfg)
        hot = log.vibration >= rc.circuit.vibration_threshold
        reflex_ok &= bool(((log.y_out == 1) | ~hot).all())
        in_zone = np.fromiter(
            (arena.zone_index_at(log.xs[t], log.ys[t]) >= 0 for t in range(len(log))),
            dtype=bool,
            count=len(log),
        )
        worst_run = max(worst_run, _max_consecutive(in_zone))
        runs_ok &= worst_run <= 2
        encounters += log.avoidance_events
    ok = reflex_ok and runs_ok and encounters > 0
    _report(
        5,
        "bumper reflex fires and escapes within two ticks",
        ok,
        f"every vibration >= 5 tick has y=1, longest in-zone run {worst_run} <= 2, "
        f"{encounters} encounters over 5 seeds x 10,000 ticks",
    )


def test_criterion_6_associative_transfer_20_seeds():
    t0 = time.perf_counter()
    rc = parse_config(default_ini())
    a_th = rc.circuit.color_activation_threshold
    trace_ok = True
    transfer_ok = True
    min_final_w = 1.0
    for k in range(20):
        train = run_episode(episode_config(rc, "train", seed=1000 + k))
        final_w = float(train.w_color[-1])
        min_final_w = min(min_final_w, final_w)
        steps = np.diff(train.w_color)
        trace_ok &= bool(steps.min() >= -rc.circuit.eta - 1e-12) and final_w >= a_th

        test = run_episode(episode_config(rc, "test", seed=5000 + k, initial_w=final_w))
        transfer_ok &= test.bumper_contacts == 0 and test.avoidance_events > 0
    elapsed = time.perf_counter() - t0
    ok = trace_ok and transfer_ok and elapsed < 120.0
    _report(
        6,
        "learned color weight transfers to vibration-free avoidance",
        ok,
        f"20 seed pairs: weight non-decreasing within eta, min final w {min_final_w:.3f} "
        f">= {a_th}, test contacts 0 with avoidances > 0, {elapsed:.1f}s < 120s",
    )


def test_criterion_7_parameter_trends():
    cell = GridCellParams(1.0, math.pi / 4.0, 0.5, 0.0)
    pos = _default_walk_positions(50_000)

    ptm = [
        peak_to_mean(rate_map(pos, rates_at(pos, cell, FiringParams(k, 0.3)), 0.05, BOUNDS))
        for k in (1.0, 5.0, 20.0)
    ]
    area = [
        halfmax_area_bins(rate_map(pos, rates_at(pos, cell, FiringParams(5.0, z)), 0.05, BOUNDS))
        for z in (0.1, 0.3, 0.6)
    ]
    ok = ptm[0] < ptm[1] < ptm[2] and area[0] < area[1] < area[2]
    _report(
        7,
        "sharpness and field-size trends",
        ok,
        f"peak/mean {[round(v, 3) for v in ptm]} strictly increasing over kappa, "
        f"half-max bins {area} strictly increasing over zeta",
    )


def test_criterion_8_cli_determinism(tmp_path):
    cfg_train = tmp_path / "train.ini"
    cfg_train.write_text("[run]\ntick_count = 400\nseed = 9\n")
    cfg_test = tmp_path / "test.ini"
    cfg_test.write_text(
        "[run]\ntick_count = 400\nseed = 9\n[circuit]\ninitial_w_color = 0.55\n"
    )
    cfg_sweep = tmp_path / "sweep.ini"
    cfg_sweep.write_text("[run]\ntick_count = 400\nseed = 9\n[sweep]\nkappa = 1, 20\n")

    commands = {
        "ratemap": ["ratemap", "--config", str(cfg_train)],
        "episode-train": ["episode", "--mode", "train", "--config", str(cfg_train)],
        "episode-test": ["episode", "--mode", "test", "--config", str(cfg_test)],
        "sweep": ["sweep", "--config", str(cfg_sweep)],
    }
    identical = True
    n_csv = 0
    for name, argv in commands.items():
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}-{run_id}"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out)
        csvs = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.csv"))
        n_csv += len(csvs)
        identical &= len(csvs) > 0 and all(
            (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes() for rel in csvs
        )
    ok = identical
    _report(
        8,
        "identical command reruns are byte-identical",
        ok,
        f"{n_csv} CSV files compared across ratemap/episode(train,test)/sweep",
    )


def test_criterion_9_place_field_locality():
    rc = parse_config(default_ini())
    pos = _default_walk_positions(100_000)
    active_samples = place_activity_at(pos, rc.place, rc.firing)

    rm = rate_map(pos, active_samples.astype(np.float64), rc.bin_size, BOUNDS)
    visited = rm.visited
    active = visited & (rm.values > 0.0)
    frac_active = active.sum() / visited.sum()
    component = largest_component_fraction(active) if active.any() else 0.0

    ok = (
        active_samples.sum() > 0
        and frac_active < 0.15
        and component >= 0.8
    )
    _report(
        9,
        "place field is small and compact",
        ok,
        f"{int(active_samples.sum())} active samples, active bins "
        f"{int(active.sum())}/{int(visited.sum())} = {frac_active:.4f} < 0.15, "
        f"largest component {component:.2f} >= 0.8",
    )
