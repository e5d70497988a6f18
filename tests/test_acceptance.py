"""Top-level acceptance suite: one test per release criterion.

Each test is self-contained, pins its own seeds, and asserts the documented
tolerance, so `pytest tests/test_acceptance.py -v` prints one pass/fail line
per criterion. The deep end-to-end criterion trains both architectures for
200 epochs and takes a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from scharm import vectorize_upper
from scharm import io as sio
from scharm.augment import augment_cohort, augment_site, mixup_pair
from scharm.autodiff import (
    AdamState,
    Tensor,
    adain,
    adam_step,
    chebconv,
    grad_reversal,
    sigmoid_bce,
    softmax_cross_entropy,
    weighted_mae_loss,
    zero_grads,
)
from scharm.cli import run
from scharm.core import (
    edge_count,
    highest_quality_site,
    lowest_quality_site,
    split_cohort,
    table1_sites,
)
from scharm.deep import ArchitectureConfig, HarmonizerModel, TrainingConfig, train
from scharm.evaluation import (
    edge_metrics,
    fingerprint_accuracy,
    identifiability_difference,
    pairwise_distances,
)
from scharm.linear import coefficient_standard_errors, fit_lr, lr_harmonize
from scharm.metrics import (
    closeness_centrality,
    clustering_coefficient,
    local_efficiency,
    nodal_strength,
    normalized_laplacian,
    symmetric_eigenvalues,
)
from scharm.synthetic import (
    SyntheticSiteEffect,
    default_cohort,
    generate_synthetic_cohort,
    redraw_retest,
)
from conftest import random_connectome
from test_autodiff import finite_diff_check
from _oracles import (
    bf_closeness,
    bf_clustering,
    bf_eigenvalues,
    bf_local_efficiency,
)

SITES = table1_sites()
N = 32
D = edge_count(N)


def _fit(manifest):
    return fit_lr([r.matrix for r in manifest.subjects], [r.site for r in manifest.subjects])


def _lowest_highest_pairs(manifest):
    low = lowest_quality_site(manifest.sites)
    high = highest_quality_site(manifest.sites)
    lows = sorted(manifest.records(site_index=low.site_index), key=lambda r: r.subject_id)
    highs = {r.subject_id: r.matrix for r in manifest.records(site_index=high.site_index)}
    return low, high, lows, [highs[r.subject_id] for r in lows]


def test_criterion_01_lr_exact_recovery():
    # noiseless cohort whose per-site offsets are exact integers, so integer
    # rounding of the observations is lossless and recovery must be exact
    t0 = time.monotonic()
    effect = SyntheticSiteEffect.constant(D, beta1=20.0, beta2=0.002, beta3=0.02, noise_sigma=0.0)
    manifest = generate_synthetic_cohort(N, 64, SITES, effect, density=0.5, seed=5)
    model = _fit(manifest)
    assert np.abs(model.coefficients[:, 1] - 20.0).max() < 1e-9
    assert np.abs(model.coefficients[:, 2] - 0.002).max() < 1e-9
    assert np.abs(model.coefficients[:, 3] - 0.02).max() < 1e-9
    # the intercept absorbs the cohort-mean latent connectome
    latents = np.stack([
        vectorize_upper(r.latent_truth)
        for r in manifest.subjects if r.site.site_index == 0
    ])
    assert np.abs(model.coefficients[:, 0] - latents.mean(axis=0)).max() < 1e-9
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_lr_noisy_recovery_within_3_se():
    effect = SyntheticSiteEffect.constant(D, beta1=2.0, beta2=0.004, beta3=0.0, noise_sigma=2.0)
    manifest = generate_synthetic_cohort(N, 400, SITES, effect, density=0.5, seed=6)
    model = _fit(manifest)
    se = coefficient_standard_errors(model, [r.site for r in manifest.subjects])
    truth = np.array([2.0, 0.004, 0.0])
    within = np.abs(model.coefficients[:, 1:4] - truth[None, :]) <= 3.0 * se[:, 1:4]
    coverage = within.all(axis=1).mean()
    assert coverage >= 0.99, f"coverage {coverage:.4f}"


def test_criterion_03_lr_harmonization_halves_mae():
    manifest, _ = default_cohort(seed=0)
    model = _fit(manifest)
    low, high, lows, targets = _lowest_highest_pairs(manifest)
    harmonized = lr_harmonize([r.matrix for r in lows], low, high, model)
    lr_mae = edge_metrics(harmonized, targets)["MAE"][0]
    raw_mae = edge_metrics([r.matrix for r in lows], targets)["MAE"][0]
    assert lr_mae <= 0.5 * raw_mae, f"LR {lr_mae:.4f} vs raw {raw_mae:.4f}"


def test_criterion_04_graph_metric_oracle_equivalence():
    # nodal metrics vs exhaustive simple-path / triangle enumeration
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        m = random_connectome(rng, n, density=float(rng.uniform(0.3, 0.9)))
        w = m.values.astype(float)
        assert np.abs(nodal_strength(m) - w.sum(axis=1)).max() <= 1e-10
        assert np.abs(closeness_centrality(m) - bf_closeness(w)).max() <= 1e-10
        assert np.abs(clustering_coefficient(m) - bf_clustering(w)).max() <= 1e-10
        assert np.abs(local_efficiency(m) - bf_local_efficiency(w)).max() <= 1e-10
    # eigenvalues vs characteristic-polynomial roots
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        got = symmetric_eigenvalues(a)
        assert np.abs(got - bf_eigenvalues(a)).max() <= 1e-8


def test_criterion_05_finite_difference_gradients():
    t0 = time.monotonic()
    checks = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4))))
        a = rng.standard_normal(shape)
        a = np.where(np.abs(a) < 0.2, a + 0.5, a)
        b = rng.standard_normal(shape) + 3.0
        pos = np.abs(a) + 0.5
        finite_diff_check(lambda x, y: ((x * y + x - y) / y).sum(), [a, b])
        finite_diff_check(lambda x: (x.exp() + x.pow(3.0)).sum(), [a])
        finite_diff_check(lambda x: (x.log() * x.sqrt()).sum(), [pos])
        finite_diff_check(lambda x: (x.abs() + x.relu()).mean(), [a])
        checks += 4
    for seed in range(3):
        rng = np.random.default_rng(10 + seed)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        finite_diff_check(lambda a_, b_: (a_ @ b_).pow(2.0).mean(), [x, w])
        finite_diff_check(lambda a_: a_.max(axis=1).sum(), [x * 10.0])
        finite_diff_check(lambda a_: a_.transpose(1, 0).reshape(2, 6).sum(axis=1).pow(2.0).sum(), [x])
        checks += 3
    for seed in range(3):
        rng = np.random.default_rng(20 + seed)
        target = rng.integers(0, 4, size=(2, 5)).astype(float)
        pred = target + rng.standard_normal((2, 5)) * 0.9 + 0.05
        logits = rng.standard_normal((4, 3)) * 2.0
        labels = np.eye(3)[rng.integers(0, 3, size=4)]
        bits = (rng.random((4, 3)) < 0.5).astype(float)
        finite_diff_check(lambda x: weighted_mae_loss(x, target), [pred])
        finite_diff_check(lambda x: softmax_cross_entropy(x, labels), [logits])
        finite_diff_check(lambda x: sigmoid_bce(x, bits), [logits])
        checks += 3
    for seed in range(2):
        rng = np.random.default_rng(30 + seed)
        f = rng.standard_normal((2, 5, 3))
        scale = rng.standard_normal((2, 3))
        shift = rng.standard_normal((2, 3))
        lap = normalized_laplacian(random_connectome(rng, 4, density=0.8)) - np.eye(4)
        x = rng.standard_normal((2, 4, 2))
        theta = rng.standard_normal((3, 2, 2))
        finite_diff_check(lambda a_, b_, c_: adain(a_, b_, c_).pow(2.0).mean(), [f, scale, shift])
        finite_diff_check(lambda a_, b_: chebconv(a_, lap, b_).pow(2.0).mean(), [x, theta])
        checks += 2
    assert checks >= 20
    assert time.monotonic() - t0 < 60.0


def test_criterion_06_chebconv_spectral_equivalence():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        order = int(rng.integers(0, 4))
        d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lap = normalized_laplacian(random_connectome(rng, n, density=0.7)) - np.eye(n)
        x = rng.standard_normal((2, n, d_in))
        theta = rng.standard_normal((order + 1, d_in, d_out))
        got = chebconv(Tensor(x), lap, Tensor(theta)).data

        lam, u = np.linalg.eigh(lap)
        expected = np.zeros((2, n, d_out))
        t_prev, t_curr = np.ones_like(lam), lam.copy()
        for m in range(order + 1):
            if m == 0:
                t_m = np.ones_like(lam)
            elif m == 1:
                t_m = lam
            else:
                t_m = 2.0 * lam * t_curr - t_prev
                t_prev, t_curr = t_curr, t_m
            filt = u @ np.diag(t_m) @ u.T
            expected += np.einsum("ij,bjk,kl->bil", filt, x, theta[m])
        assert np.abs(got - expected).max() <= 1e-8


def test_criterion_07_gradient_reversal_contract():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    out = grad_reversal(x, lam=0.73)
    assert np.array_equal(out.data, x.data)  # forward identity, bit exact
    upstream = rng.standard_normal((5, 6))
    out.backward(upstream)
    assert np.abs(x.grad + 0.73 * upstream).max() <= 1e-12

    # adversarial direction on a separable 2-site toy problem
    pts = np.vstack([rng.normal(-2, 0.3, size=(20, 4)), rng.normal(2, 0.3, size=(20, 4))])
    labels = np.eye(2)[np.array([0] * 20 + [1] * 20)]
    w_enc = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
    w_cls = Tensor(rng.standard_normal((3, 2)) * 0.5, requires_grad=True)

    def ce():
        return softmax_cross_entropy(grad_reversal(Tensor(pts) @ w_enc, 1.0) @ w_cls, labels)

    before = float(ce().data)
    loss = ce()
    zero_grads([w_enc, w_cls])
    loss.backward()
    adam_step(AdamState([w_cls]), lr=1e-2)
    after_classifier_step = float(ce().data)
    assert after_classifier_step < before  # classifier step lowers its loss

    loss = ce()
    zero_grads([w_enc, w_cls])
    loss.backward()
    w_enc.data -= 1e-2 * np.sign(w_enc.grad)  # descend the reversed gradient
    after_encoder_step = float(ce().data)
    assert after_encoder_step > after_classifier_step  # encoder step raises it


def test_criterion_08_adain_statistics():
    rng = np.random.default_rng(0)
    f = Tensor(rng.standard_normal((4, 16, 6)) * 3.0 + 2.0)  # sigma ~ 3 >> eps/1e-12
    scale = Tensor(rng.standard_normal((4, 6)) * 2.0)
    shift = Tensor(rng.standard_normal((4, 6)))
    out = adain(f, scale, shift, eps=1e-16).data
    assert np.abs(out.mean(axis=1) - shift.data).max() <= 1e-9
    assert np.abs(out.std(axis=1) - np.abs(scale.data)).max() <= 1e-9


@pytest.mark.slow
def test_criterion_09_deep_end_to_end():
    t0 = time.monotonic()
    cohort, _ = default_cohort(seed=7)
    cohort = split_cohort(cohort, (0.8, 0.1, 0.1), seed=7)
    augmented = augment_cohort(cohort, per_site=200, seed=11)
    low = lowest_quality_site(cohort.sites)
    high = highest_quality_site(cohort.sites)
    highs = {r.subject_id: r.matrix for r in cohort.records(site_index=high.site_index)}

    for kind in ("fae", "gae"):
        if kind == "fae":
            config = ArchitectureConfig.fae_default(N, 4)
        else:
            config = ArchitectureConfig.gae_default(N, 4)
        model = HarmonizerModel(config, seed=1)
        model, history = train(model, augmented, TrainingConfig(epochs=200, seed=3))

        # (a) training loss halves between the first and the last epoch
        first, last = history.records[0].total_loss, history.records[-1].total_loss
        assert last < 0.5 * first, f"{kind}: loss {first:.3f} -> {last:.3f}"

        # (b) test-split MAE beats the unharmonized baseline by >= 25%
        test_low = sorted(cohort.records(split="test", site_index=low.site_index),
                          key=lambda r: r.subject_id)
        targets = [highs[r.subject_id] for r in test_low]
        harmonized = model.harmonize_many([r.matrix for r in test_low], high)
        mae = edge_metrics(harmonized, targets)["MAE"][0]
        raw_mae = edge_metrics([r.matrix for r in test_low], targets)["MAE"][0]
        assert mae < 0.75 * raw_mae, f"{kind}: MAE {mae:.3f} vs raw {raw_mae:.3f}"

        # (c) fingerprinting over the full 64-subject cohort beats 5x chance
        all_low = sorted(cohort.records(site_index=low.site_index), key=lambda r: r.subject_id)
        pair = pairwise_distances(model.harmonize_many([r.matrix for r in all_low], high),
                                  [highs[r.subject_id] for r in all_low])
        fa = fingerprint_accuracy(pair)
        assert fa >= 5.0 / 64.0, f"{kind}: FA {fa:.4f}"
        if kind == "gae":
            assert identifiability_difference(pair) > 0.0
    assert time.monotonic() - t0 < 30 * 60


def test_criterion_10_augmentation_fidelity():
    manifest, _ = default_cohort(seed=0)
    parents = [r.matrix for r in manifest.records(site_index=0)]

    # population mean nodal strength within 5%
    children = augment_site(parents, count=64, seed=4)
    ns_parent = np.mean([nodal_strength(m).mean() for m in parents])
    ns_child = np.mean([nodal_strength(m).mean() for m in children])
    assert abs(ns_child - ns_parent) <= 0.05 * ns_parent

    # exact membership: >= 1e5 mixed edge values, each verbatim from a parent
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 10**5:
        i, j = rng.choice(len(parents), size=2, replace=False)
        child = mixup_pair(parents[i], parents[j], seed=int(rng.integers(1 << 30)))
        va = vectorize_upper(parents[i])
        vb = vectorize_upper(parents[j])
        vc = vectorize_upper(child)
        assert np.all((vc == va) | (vc == vb))
        checked += vc.size
    assert checked >= 10**5


def test_criterion_11_cli_determinism(tmp_path):
    sites = tmp_path / "sites.json"
    sio.save_sites(SITES, sites)
    effect = tmp_path / "effect.json"
    effect.write_text('{"beta1_const": 2.0, "beta2_const": 0.002, "noise_sigma": 1.0}')

    csv_bodies = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        assert run(["generate", "--nodes", "10", "--subjects", "12",
                    "--sites-file", str(sites), "--effect-file", str(effect),
                    "--seed", "9", "--out-dir", str(base / "cohort")]) == 0
        assert run(["fit-lr", "--manifest", str(base / "cohort" / "manifest.json"),
                    "--out", str(base / "lr.csv")]) == 0
        assert run(["harmonize", "--manifest", str(base / "cohort" / "manifest.json"),
                    "--method", "lr", "--model", str(base / "lr.csv"),
                    "--target-site", "3", "--out-dir", str(base / "harm")]) == 0
        assert run(["evaluate", "--pred-manifest", str(base / "harm" / "manifest.json"),
                    "--target-manifest", str(base / "cohort" / "manifest.json"),
                    "--out", str(base / "report.csv")]) == 0
        assert run(["metrics", "--manifest", str(base / "cohort" / "manifest.json"),
                    "--out", str(base / "metrics.csv")]) == 0
        body = b"".join(
            (base / name).read_bytes() for name in ("lr.csv", "report.csv", "metrics.csv")
        )
        matrices = b"".join(
            p.read_bytes() for p in sorted((base / "cohort").rglob("*.csv"))
        )
        csv_bodies.append(body + matrices)
    assert csv_bodies[0] == csv_bodies[1]


def test_criterion_12_bounds_ordering():
    manifest, effect = default_cohort(seed=0)
    model = _fit(manifest)
    low, high, lows, targets = _lowest_highest_pairs(manifest)

    lower_mae = edge_metrics([r.matrix for r in lows], targets)["MAE"][0]
    harmonized = lr_harmonize([r.matrix for r in lows], low, high, model)
    lr_mae = edge_metrics(harmonized, targets)["MAE"][0]
    retest = redraw_retest(manifest, effect, high, [r.subject_id for r in lows], seed=1)
    upper_mae = edge_metrics(targets, [r.matrix for r in retest])["MAE"][0]

    assert lower_mae > lr_mae > upper_mae, (
        f"lower {lower_mae:.4f}, LR {lr_mae:.4f}, upper {upper_mae:.4f}"
    )
