"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 4 and 11 encode targets that turned out to be mathematically
unreachable at their stated parameters; they are kept strict (and failing)
rather than loosened. The analysis lives in the README's acceptance-status
section. Everything else must pass at the stated tolerance and within the
stated runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import framesync as fs
from framesync.channels import Dmc
from framesync.cli import main as cli_main

from closed_forms import bsc_threshold_closed_form, default_grid
from exact_oracle import exact_error_probability_dp, exact_error_probability_enum
from small_configs import random_small_config


@contextmanager
def criterion(num: int, desc: str, runtime_limit: float):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        assert elapsed <= runtime_limit, (
            f"runtime {elapsed:.1f}s exceeds the {runtime_limit:.0f}s budget"
        )
    except Exception:
        print(f"[criterion {num:2d}] FAIL ({time.monotonic() - t0:6.1f}s) {desc}")
        raise
    print(f"[criterion {num:2d}] PASS ({elapsed:6.1f}s) {desc}")


P_GRID = [i / 50.0 for i in range(1, 51)]  # 50 values in (0, 1]
EPS_GRID = [i / 100.0 for i in range(1, 50)]  # 0.01 .. 0.49


def test_criterion_01_bsc_closed_form():
    with criterion(1, "BSC threshold matches the closed form to 1e-12", 1.0):
        for eps in EPS_GRID:
            rep = fs.sync_threshold(fs.bsc(eps))
            assert abs(rep.alpha - bsc_threshold_closed_form(eps)) <= 1e-12


def test_criterion_02_composite_closed_form():
    with criterion(2, "composite ON-OFF/BSC threshold matches eps_p form to 1e-12", 1.0):
        for p in P_GRID:
            fading = fs.on_off_fading_matrix(p)
            for eps in EPS_GRID:
                alpha = fs.sync_threshold(fs.compose(fading, fs.bsc(eps))).alpha
                closed = fs.composite_binary_threshold_closed_form(p, eps)
                assert abs(alpha - closed) <= 1e-12, (p, eps)


def test_criterion_03_lemma1_grid():
    with criterion(3, "fading bound holds on the grid and random channels", 5.0):
        rng = np.random.default_rng(777)
        for p in P_GRID:
            for eps in EPS_GRID:
                rep = fs.fading_bound_check(p, fs.bsc(eps))
                assert rep.holds, (p, eps)
                # binary grid cells: the maximizing input is invariant
                assert rep.argmax_composite == rep.argmax_noise == 1, (p, eps)
            for _ in range(100):
                n_in = int(rng.integers(2, 5))
                n_out = int(rng.integers(2, 6))
                rows = rng.random((n_in, n_out)) + 0.05
                rows /= rows.sum(axis=1, keepdims=True)
                noise = Dmc(rows)
                assert fs.fading_bound_check(p, noise).holds, p


def test_criterion_04_epsilon_limit():
    # Target: at eps = 1e-6, |alpha(Q)/alpha(Qn) - p| <= 1e-3. The deviation
    # is H(p)/alpha(Qn), about 0.05 at p = 0.5, and shrinks only like
    # 1/log(1/eps); reaching 1e-3 needs eps below 1e-301. Kept strict and
    # expected to fail; see README.
    with criterion(4, "ratio within 1e-3 of p at eps = 1e-6 (unreachable target, expected FAIL)", 1.0):
        eps = 1e-6
        alpha_n = bsc_threshold_closed_form(eps)
        for p in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            ratio = fs.composite_binary_threshold_closed_form(p, eps) / alpha_n
            entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p))
            assert abs(ratio - p) <= 1e-3, (
                f"p={p}: |ratio - p| = {abs(ratio - p):.5f}; the gap equals "
                f"H(p)/alpha(Qn) = {entropy / alpha_n:.5f} and shrinks only "
                f"like 1/log(1/eps), so 1e-3 needs eps < 1e-301"
            )


def test_criterion_05_awgn_threshold():
    with criterion(5, "quantized AWGN threshold within 1% of P/(2 sigma^2)", 10.0):
        for power, s2 in ((1.0, 1.0), (4.0, 1.0), (10.0, 2.0)):
            spec = fs.AwgnSpec(power=power, noise_var=s2)
            dmc = fs.quantize_to_dmc(spec, default_grid(spec))
            alpha = fs.sync_threshold(dmc).alpha
            exact = power / (2.0 * s2)
            assert abs(alpha - exact) / exact <= 0.01, (power, s2)


def test_criterion_06_rayleigh_asymptote():
    with criterion(6, "Rayleigh/AWGN ratio near 2 sigma_H^2 at SNR 100, monotone", 60.0):
        snr_grid = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
        cells = fs.rayleigh_ratio_sweep(snr_grid, [1.0, 2.0, 3.0], noise_var=1.0)
        for sigma_h in (1.0, 2.0, 3.0):
            ratios = [c.ratio for c in cells if c.sigma_h == sigma_h]
            target = 2.0 * sigma_h * sigma_h
            assert abs(ratios[-1] - target) / target <= 0.10, sigma_h
            assert all(b > a for a, b in zip(ratios, ratios[1:])), sigma_h


def test_criterion_07_mlsr_properties():
    with criterion(7, "m-sequence period, balance, and shift distance for m in 2..10", 5.0):
        for m in range(2, 11):
            seq = fs.generate_mlsr(m)
            period = 2**m - 1
            assert len(seq) == period
            assert seq.sum() == 2 ** (m - 1)
            reg = fs.Lfsr(m, seed=1)
            states = set()
            for _ in range(period):
                assert reg.state not in states
                states.add(reg.state)
                reg.step()
            assert reg.state == 1
            for tau in range(1, period):
                d = int(np.count_nonzero(seq != np.roll(seq, tau)))
                assert d == 2 ** (m - 1), (m, tau)


def test_criterion_08_sync_word_shift_distance():
    with criterion(8, "min shift distance / N >= 1/(4K) for K in {3,4,8}, N <= 4096", 30.0):
        for k in (3, 4, 8):
            floor = 1.0 / (4.0 * k)
            for m in range(3, 17):
                base = k * (2**m - 1)
                if base > 4096:
                    break
                for n in (base, min(base + k - 1, 4096)):
                    word = fs.build_sync_word(n, k)
                    dist, _ = fs.min_shift_hamming_distance(word)
                    assert dist / n >= floor, (k, n, dist)


def test_criterion_09_exact_small_instance_oracle():
    # The 40 configurations are drawn with a frozen seed so the suite is
    # deterministic; nominal 95% coverage makes >= 38/40 sensitive to the
    # draw, and this seed was verified to satisfy it.
    with criterion(9, "enumeration == recursion to 1e-12; MC inside its CI >= 38/40", 120.0):
        rng = np.random.default_rng(777)
        inside = 0
        for i in range(40):
            cfg = random_small_config(rng)
            p_dp = exact_error_probability_dp(cfg)
            p_enum = exact_error_probability_enum(cfg)
            assert abs(p_dp - p_enum) <= 1e-12, i
            rep = fs.monte_carlo(cfg, 100_000, master_seed=777_000 + i)
            lo, hi = rep.wilson_ci_95()["p_err"]
            if lo <= p_dp <= hi:
                inside += 1
        assert inside >= 38, f"exact value inside the MC interval in only {inside}/40"


def test_criterion_10_scaling_sweep():
    with criterion(10, "BSC scaling: p_err strictly decreasing over N = 63,127,255", 600.0):
        rows = fs.bsc_scaling_rows(
            0.05, 4, [63, 127, 255], beta=0.5, mu=0.05, norm="l1"
        )
        results = [(row, fs.monte_carlo(row.config, 10_000, master_seed=20250807)) for row in rows]
        p_errs = [rep.p_err for _, rep in results]
        halves = [
            (ci[1] - ci[0]) / 2.0
            for ci in (rep.wilson_ci_95()["p_err"] for _, rep in results)
        ]
        print("    p_err sweep:", [round(p, 4) for p in p_errs])
        assert all(b < a for a, b in zip(p_errs, p_errs[1:])), p_errs
        assert p_errs[0] - p_errs[-1] > halves[0] + halves[-1]


def test_criterion_11_energy_sweep():
    # Target: fixed E with ln A = E/4 and N in {32, 64, 128} should give
    # decreasing p_err. At fixed E the per-symbol power P = E/N decreases
    # (outside the regime where the energy threshold argument applies), and
    # the admissible prefixes at these N are at most 7 symbols, so neighbor
    # shifts are statistically indistinguishable. Kept strict and expected to
    # fail; see README. The feasibility reporting itself is exercised here.
    with criterion(11, "fixed-energy sweep decreasing (unreachable target, expected FAIL)", 600.0):
        energy, sigma2 = 32.0, 1.0
        rows = fs.energy_scaling_rows(
            energy, sigma2, n_list=[32, 64, 128], bins=8, mu_coeff=1.2, norm="l1"
        )
        for row in rows:
            assert row.a == int(round(math.exp(energy / (4.0 * sigma2))))
            assert row.extra["feasibility_threshold"] == pytest.approx(
                math.exp(energy / (2.0 * sigma2))
            )
            assert row.extra["feasibility_threshold"] > row.a  # feasible side
        results = [(row, fs.monte_carlo(row.config, 2_000, master_seed=20250807)) for row in rows]
        p_errs = [rep.p_err for _, rep in results]
        print("    p_err sweep:", [round(p, 4) for p in p_errs])
        assert all(b < a for a, b in zip(p_errs, p_errs[1:])), (
            f"p_err not decreasing at fixed energy: {p_errs}; at fixed E the "
            f"sync position is not identifiable at these lengths (prefix <= 7)"
        )


def test_criterion_12_preset_determinism(tmp_path):
    with criterion(12, "presets byte-identical across reruns and worker counts", 600.0):
        runs = {
            "single_bsc": ["--set", "trials=4000"],
            "bsc_scaling": ["--set", "trials=4000"],
            "energy_scaling": ["--set", "trials=1000"],
        }
        for preset, extra in runs.items():
            outputs = []
            for tag, workers in (("r1", "1"), ("r2", "2"), ("r3", "1")):
                path = tmp_path / f"{preset}-{tag}.out"
                code = cli_main(
                    ["simulate", "--preset", preset, *extra,
                     "--set", f"workers={workers}", "--out", str(path)]
                )
                assert code == 0, (preset, tag)
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2], preset
