"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v` to see them).

The heavy Monte Carlo criteria (5, 6) run at their full trial counts; the
whole module takes a few minutes.
"""

import itertools
import json
import os

import numpy as np
import pytest

from relaysim.channel import SystemConfig
from relaysim.cli import main as cli_main
from relaysim.montecarlo import fit_diversity, run_ber, run_outage
from relaysim.numerics import RngStream, dominant_singular_pair_batch
from relaysim.protocol import feedback_budget
from relaysim.receiver import closed_form_check
from relaysim.selection import (
    gamma_srd,
    mmse_post_snr,
    mrc_post_snr,
    mrc_post_snr_variant,
    relaying_harmful,
)
from relaysim.stream import draw


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _closed_form_sweep(trials=10**4, seed=2024):
    worst_mmse = 0.0
    worst_mrc = 0.0
    stream = 0
    for snr in (0.01, 1.0, 100.0):
        for n_s, n_r, n_d in itertools.product((1, 2, 3, 4), repeat=3):
            e_mmse, e_mrc = closed_form_check(n_s, n_r, n_d, snr, trials, seed, stream)
            worst_mmse = max(worst_mmse, e_mmse)
            worst_mrc = max(worst_mrc, e_mrc)
            stream += 1
    return worst_mmse, worst_mrc


@pytest.fixture(scope="module")
def closed_form_errors():
    return _closed_form_sweep()


def test_criterion_1_mmse_closed_form(closed_form_errors):
    # 10^4 realizations per (N_S, N_R, N_D, snr) combination, N in 1..4,
    # snr in {0.01, 1, 100}: numerical MMSE post-SNR matches the additive
    # closed form to 1e-9 relative.
    err, _ = closed_form_errors
    report("criterion-1 mmse-closed-form",
           err <= 1e-9, f"max rel deviation {err:.3e} (tol 1e-9)")


def test_criterion_2_mrc_closed_form(closed_form_errors):
    # same harness for the derived MRC form; the variant closed form with the
    # extra direct-SNR factor must deviate whenever gamma_sd != 1
    # (report archived in docs/mrc_closed_form_check.md).
    _, err = closed_form_errors
    gen = RngStream(7, 1).generator()
    a = gen.exponential(2.0, 10**5) + 1e-6
    b = gen.exponential(1.0, 10**5) + 1e-6
    c = gen.exponential(3.0, 10**5) + 1e-6
    mask = np.abs(a - 1.0) > 1e-3
    dev = np.abs(mrc_post_snr_variant(a, b, c) - mrc_post_snr(a, b, c))
    deviates = np.all(dev[mask] > 0)
    doc = os.path.join(os.path.dirname(__file__), "..", "docs", "mrc_closed_form_check.md")
    report("criterion-2 mrc-closed-form",
           err <= 1e-9 and deviates and os.path.exists(doc),
           f"max rel deviation {err:.3e} (tol 1e-9); variant deviates on "
           f"{int(mask.sum())} samples with gamma_sd != 1")


def test_criterion_3_harmful_predicate():
    # 10^6 random positive SNR triples: predicate true => derived MRC SNR
    # strictly below the direct SNR, and the predicate is exactly equivalent
    # to (MRC SNR < gamma_sd).
    gen = RngStream(8, 1).generator()
    n = 10**6
    a = gen.exponential(2.0, n)
    b = gen.exponential(1.0, n)
    c = gen.exponential(5.0, n)
    harmful = relaying_harmful(a, b, c)
    below = mrc_post_snr(a, b, c) < a
    implication_violations = int(np.count_nonzero(harmful & ~below))
    equivalence_mismatches = int(np.count_nonzero(harmful != below))
    report("criterion-3 harmful-predicate",
           implication_violations == 0 and equivalence_mismatches == 0,
           f"{implication_violations} implication violations, "
           f"{equivalence_mismatches} equivalence mismatches over {n} triples")


def test_criterion_4_dominance():
    # over 10^6 realizations: MMSE post-SNR >= MRC post-SNR, and the SVD
    # relay filter's predicted SNR >= the best relay antenna's.
    cfg = SystemConfig(2, 2, 2, snr=1.0)
    mmse_viol = 0
    filter_viol = 0
    chunk = 1 << 14
    total = 10**6
    done = 0
    idx = 0
    while done < total:
        n = min(chunk, total - done)
        gen = RngStream(9, idx).generator()
        h_sd, h_sr, h_rd = (link.values() for link in draw(cfg, gen, n))
        g_sd = np.sum(np.abs(h_sd) ** 2, axis=1)
        g_sr = np.sum(np.abs(h_sr) ** 2, axis=1)
        g_rd = np.sum(np.abs(h_rd) ** 2, axis=1)
        # compare on matched (i, k) = (0, 0) picks
        mmse = mmse_post_snr(g_sd[:, 0], g_sr[:, 0], g_rd[:, 0])
        mrc = mrc_post_snr(g_sd[:, 0], g_sr[:, 0], g_rd[:, 0])
        mmse_viol += int(np.count_nonzero(mmse < mrc * (1 - 1e-12)))
        sigma, _ = dominant_singular_pair_batch(h_rd)
        best_rd = g_rd.max(axis=1)
        filt = mmse_post_snr(g_sd[:, 0], g_sr[:, 0], cfg.snr * sigma**2)
        best = mmse_post_snr(g_sd[:, 0], g_sr[:, 0], cfg.snr * best_rd)
        filter_viol += int(np.count_nonzero(filt < best * (1 - 1e-9)))
        done += n
        idx += 1
    report("criterion-4 dominance",
           mmse_viol == 0 and filter_viol == 0,
           f"{mmse_viol} MMSE<MRC violations, {filter_viol} filter<selection "
           f"violations over {total} realizations")


def test_criterion_5_rayleigh_bpsk_baseline():
    # direct-only 1x1 BER vs the textbook Rayleigh BPSK closed form,
    # 10^6 trials per point, every point within its 95% CI.
    cfg = SystemConfig(1, 1, 1)
    points = run_ber(cfg, "direct-only", [0.0, 5.0, 10.0, 15.0], 10**6, seed=1)
    lines = []
    ok = True
    for p in points:
        rho = 10 ** (p.snr_db / 10)
        exact = 0.5 * (1 - np.sqrt(rho / (1 + rho)))
        inside = p.ci_low <= exact <= p.ci_high
        ok &= inside
        lines.append(f"{p.snr_db:g}dB ber={p.ber:.4e} exact={exact:.4e} in_ci={inside}")
    report("criterion-5 rayleigh-bpsk-baseline", ok, "; ".join(lines))


def test_criterion_6_diversity_order():
    # desk-scale empirical diversity: window-fitted slopes for d=2 and d=3
    # configurations, plus a one-sided steepening check toward d=8.
    trials = 10**7
    window = (1e-5, 1e-2)

    fits = {}
    for dims, sweep in [((1, 1, 1), [11, 14, 17, 20, 23]),
                        ((2, 1, 1), [8, 11, 14]),
                        ((1, 2, 1), [8, 11, 14])]:
        pts = run_outage(SystemConfig(*dims), "mmse-receiver", 1.0, sweep,
                         trials, seed=123, threads=4)
        fits[dims] = fit_diversity(pts, window=window).ls_slope

    ok2 = 1.7 <= fits[(1, 1, 1)] <= 2.3
    ok3a = 2.6 <= fits[(2, 1, 1)] <= 3.4
    ok3b = 2.6 <= fits[(1, 2, 1)] <= 3.4

    pts = run_outage(SystemConfig(2, 2, 2), "mmse-receiver", 1.0,
                     [-4, -2, 0, 2, 4], trials, seed=123, threads=4)
    positive = [p for p in pts if p.outage_count > 0]
    local = fit_diversity(positive).local_slopes
    steepening = bool(np.all(np.diff(local) > 0))
    steep_enough = local[-1] > 5.0

    report("criterion-6 diversity-order",
           ok2 and ok3a and ok3b and steepening and steep_enough,
           f"slopes: (1,1,1)={fits[(1,1,1)]:.2f} [1.7,2.3], "
           f"(2,1,1)={fits[(2,1,1)]:.2f} (1,2,1)={fits[(1,2,1)]:.2f} [2.6,3.4]; "
           f"(2,2,2) locals={[round(float(s), 2) for s in local]} "
           f"steepening={steepening} last>5={steep_enough}")


def test_criterion_7_feedback_budget():
    b33 = feedback_budget(SystemConfig(3, 3, 3))
    ok = b33.total_feedback_bits == 4
    for n_s in range(1, 17):
        for n_r in range(1, 17):
            b = feedback_budget(SystemConfig(n_s, n_r, 1))
            ok &= b.snr_estimation_slots == n_r + 2 * n_s
            ok &= b.training_slots == 2
    report("criterion-7 feedback-budget",
           ok, f"(3,3) -> {b33.total_feedback_bits} bits; slot formulas exact "
               f"on all (N_S, N_R) in [1,16]^2")


def test_criterion_8_selection_decoupling():
    # joint argmax over (i, k) equals k-first-then-i selection under MMSE,
    # 10^5 realizations with N_S = N_R = 4.
    cfg = SystemConfig(4, 4, 2, snr=1.0)
    mismatches = 0
    total = 10**5
    done = 0
    idx = 0
    while done < total:
        n = min(1 << 14, total - done)
        gen = RngStream(10, idx).generator()
        h_sd, h_sr, h_rd = (link.values() for link in draw(cfg, gen, n))
        g_sd = cfg.snr * np.sum(np.abs(h_sd) ** 2, axis=1)
        g_sr = cfg.snr * np.sum(np.abs(h_sr) ** 2, axis=1)
        g_rd = cfg.snr * np.sum(np.abs(h_rd) ** 2, axis=1)
        grid = g_sd[:, :, None] + gamma_srd(g_sr[:, :, None], g_rd[:, None, :])
        joint_flat = np.argmax(grid.reshape(n, -1), axis=1)
        ji, jk = np.unravel_index(joint_flat, (cfg.n_s, cfg.n_r))
        k_o = np.argmax(g_rd, axis=1)
        rows = np.arange(n)
        i_o = np.argmax(g_sd + gamma_srd(g_sr, g_rd[rows, k_o][:, None]), axis=1)
        mismatches += int(np.count_nonzero((ji != i_o) | (jk != k_o)))
        done += n
        idx += 1
    report("criterion-8 selection-decoupling",
           mismatches == 0, f"{mismatches} mismatches over {total} realizations")


def test_criterion_9_csv_determinism(tmp_path):
    # identical seed, different --threads: byte-identical CSV output.
    spec = {
        "mode": "ber",
        "system": {"n_s": 3, "n_r": 3, "n_d": 3},
        "strategies": ["mmse-receiver", "mrc-receiver"],
        "sweep": {"axis": "mean-direct-snr-db", "values": [0.0, 4.0, 8.0],
                  "relay_mean_snr_db": 2.0},
        "trials": 50000,
        "seed": 77,
    }
    spec_path = tmp_path / "fig2.json"
    spec_path.write_text(json.dumps(spec))
    out1 = tmp_path / "t1.csv"
    out4 = tmp_path / "t4.csv"
    assert cli_main(["ber", "--config", str(spec_path), "--out", str(out1),
                     "--threads", "1"]) == 0
    assert cli_main(["ber", "--config", str(spec_path), "--out", str(out4),
                     "--threads", "4"]) == 0
    identical = out1.read_bytes() == out4.read_bytes()
    report("criterion-9 csv-determinism", identical,
           f"{out1.stat().st_size} bytes, threads 1 vs 4 identical={identical}")
