import json
import tracemalloc

import numpy as np
import pytest

from scharm import ConnectivityMatrix, deep, split_cohort
from scharm.core import CohortManifest, SiteDescriptor, SubjectRecord, table1_sites
from scharm.deep import (
    ArchitectureConfig,
    EpochRecord,
    HarmonizerModel,
    TrainingConfig,
    TrainingHistory,
    export_embeddings,
    lambda_schedule,
    select_best_epoch,
    train,
    training_inputs,
)
from scharm.errors import DimensionMismatch, EmptyInput, IoError, ParseError, UnknownSite, ValidationError
from scharm.evaluation import pairwise_distances
from scharm.metrics import normalized_laplacian
from conftest import random_connectome

N = 8
SITES = table1_sites()


def _small_cohort(n_subjects=12, seed=0) -> CohortManifest:
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_subjects):
        m = random_connectome(rng, N, density=0.7)
        for site in SITES:
            # site-dependent constant shift so there is signal to remove
            shifted = np.clip(m.values + 2 * site.site_index * (m.values > 0), 0, None)
            records.append(
                SubjectRecord(subject_id=f"s{i:02d}", site=site,
                              matrix=ConnectivityMatrix(shifted), group_key=f"s{i:02d}")
            )
    manifest = CohortManifest(subjects=records, sites=SITES)
    return split_cohort(manifest, (0.5, 0.25, 0.25), seed=seed)


def _tiny_config(kind: str, norm: str = "batch") -> ArchitectureConfig:
    if kind == "fae":
        return ArchitectureConfig(kind="fae", n_nodes=N, n_sites=4, embedding_dim=8,
                                  encoder_widths=[16], decoder_widths=[16],
                                  classifier_widths=[8], mapper_widths=[8], norm=norm)
    return ArchitectureConfig(kind="gae", n_nodes=N, n_sites=4, embedding_dim=4,
                              cheb_order=2, gae_hidden=8,
                              classifier_widths=[8], mapper_widths=[8], bce_enabled=True)


class TestLambdaSchedule:
    def test_frozen_values(self):
        assert lambda_schedule(0) == pytest.approx(0.0, abs=1e-12)
        # 2 / (1 + exp(-10 * 0.5)) - 1 at half warmup
        assert lambda_schedule(50) == pytest.approx(0.9866142981514303, rel=1e-12)
        assert lambda_schedule(100) == pytest.approx(0.9999092042625951, rel=1e-12)

    def test_saturates_after_warmup(self):
        assert lambda_schedule(150) == lambda_schedule(100)

    def test_monotone(self):
        vals = [lambda_schedule(e) for e in range(0, 101, 5)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            lambda_schedule(-1)


class TestArchitectureConfig:
    def test_round_trip(self):
        cfg = ArchitectureConfig.gae_default(32, 4)
        assert ArchitectureConfig.from_dict(cfg.to_dict()) == cfg

    def test_invalid(self):
        with pytest.raises(ValidationError):
            ArchitectureConfig(kind="vae", n_nodes=8, n_sites=4)
        with pytest.raises(ValidationError):
            ArchitectureConfig(kind="fae", n_nodes=8, n_sites=4, encoder_widths=[0])

    @pytest.mark.parametrize("override", [
        {"cheb_order": -1}, {"cheb_order": 0.5}, {"embedding_dim": 2.5}, {"gae_hidden": 0},
        {"edge_loss_weight": 0.5}, {"norm": "spectral"}, {"n_nodes": 0}, {"n_sites": "x"},
        {"mapper_widths": [2.5]}, {"encoder_widths": None}, {"bce_enabled": "x"},
    ])
    def test_unbuildable_field_rejected(self, override):
        with pytest.raises(ValidationError):
            ArchitectureConfig.from_dict({**ArchitectureConfig.gae_default(8, 4).to_dict(), **override})

    def test_unused_cheb_layers_field_rejected(self):
        with pytest.raises(ValidationError, match="cheb_layers"):
            ArchitectureConfig.from_dict({**ArchitectureConfig.gae_default(8, 4).to_dict(),
                                          "cheb_layers": 7})


@pytest.mark.parametrize("kind", ["fae", "gae"])
class TestModelPlumbing:
    def test_encode_deterministic(self, kind, rng):
        model = HarmonizerModel(_tiny_config(kind), seed=3)
        inputs, _ = model.prepare([random_connectome(rng, N)])
        assert np.array_equal(model.encode_batch(inputs).data[0], model.encode_batch(inputs).data[0])
        # same seed, fresh model: identical initialization
        again = HarmonizerModel(_tiny_config(kind), seed=3)
        assert np.array_equal(again.encode_batch(inputs).data[0], model.encode_batch(inputs).data[0])

    def test_prepared_batch_is_the_stack_of_its_records(self, kind, rng):
        # so preparing batch by batch gives the bytes of slicing one whole-split array
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        ms = [random_connectome(rng, N, density=d) for d in (0.3, 0.7, 1.0, 0.7)]
        inputs, targets = model.prepare(ms)
        singles = [model.prepare([m]) for m in ms]
        assert inputs.tobytes() == np.concatenate([i for i, _ in singles]).tobytes()
        assert targets.tobytes() == np.concatenate([t for _, t in singles]).tobytes()
        assert inputs.shape == targets.shape == ((4, 28) if kind == "fae" else (4, N, N))
        if kind == "fae":
            assert np.array_equal(inputs, np.log1p(targets))
        else:
            assert np.array_equal(inputs[0], normalized_laplacian(ms[0]) - np.eye(N))

    def test_targets_postprocess_to_the_matrices(self, kind, rng):
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        ms = [random_connectome(rng, N, density=d) for d in (0.3, 0.7, 1.0)]
        _, targets = model.prepare(ms)
        for target, m in zip(targets, ms):
            assert model._postprocess(target) == m

    def test_wrong_node_count(self, kind, rng):
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        m = random_connectome(rng, N + 1)
        with pytest.raises(DimensionMismatch):
            model.prepare([random_connectome(rng, N), m])
        with pytest.raises(DimensionMismatch):
            model.harmonize_many([m], SITES[3])

    def test_harmonize_output_contract(self, kind, rng):
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        m = random_connectome(rng, N)
        out = model.harmonize_many([m], SITES[3])[0]
        assert isinstance(out, ConnectivityMatrix)
        assert out.n == N

    def test_site_conditioning_changes_output(self, kind, rng):
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        # give the conditioning path a non-trivial effect (the AdaIN scale and
        # shift nets start as identity, ignoring the site code)
        perturb = np.random.default_rng(1)
        for p in model.mapper.parameters():
            p.data += perturb.standard_normal(p.data.shape)
        for cond in model.conditioners:
            cond.shift_net.w.data += perturb.standard_normal(cond.shift_net.w.data.shape)
        inputs, _ = model.prepare([random_connectome(rng, N)])
        f_e = model.encode_batch(inputs)
        raw0 = model.decode_batch(f_e, model.site_codes([0]), inputs).data
        raw3 = model.decode_batch(f_e, model.site_codes([3]), inputs).data
        assert not np.allclose(raw0, raw3)

    def test_save_load_bit_exact(self, kind, rng, tmp_path):
        model = HarmonizerModel(_tiny_config(kind), seed=5)
        history = TrainingHistory(records=[EpochRecord(0, 1.0, 0.5, 0.4, 0.1, 0.0,
                                                       2.0, 0.1, 1e-2, 1e-3)])
        path = tmp_path / "model.bin"
        model.save(path, history=history)
        loaded, hist = HarmonizerModel.load(path)
        assert loaded.config == model.config
        assert hist.records[0] == history.records[0]
        for name, arr in model.state_arrays().items():
            assert np.array_equal(loaded.state_arrays()[name], arr), name
        m = random_connectome(rng, N)
        assert loaded.harmonize_many([m], SITES[3])[0] == model.harmonize_many([m], SITES[3])[0]

    def test_load_rejects_incomplete_checkpoint(self, kind, tmp_path):
        from scharm import checkpoint

        path = tmp_path / "model.bin"
        HarmonizerModel(_tiny_config(kind), seed=5).save(path)
        tensors = checkpoint.load_tensors(path)
        dropped = sorted(tensors)[0]
        del tensors[dropped]
        checkpoint.save_tensors(tensors, path)
        with pytest.raises(ValidationError, match=dropped):
            HarmonizerModel.load(path)

    def test_state_covers_every_parameter_and_buffer(self, kind):
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        state = model.state_arrays()
        assert len(state) == len(model.named_parameters()) + len(model.named_buffers())
        if kind == "fae":
            # hidden BatchNorm running statistics travel with the weights
            assert "encoder.layers.0.norm.running_mean" in state
            assert "decoder.layers.0.norm.running_var" in state
        else:
            assert "enc_convs.0.theta" in state and "conditioners.2.shift_net.b" in state
            assert not model.named_buffers()

    def test_unknown_target_site(self, kind, rng):
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        m = random_connectome(rng, N)
        bad = SiteDescriptor(b_value=5000.0, resolution=1.0, site_index=9)
        assert np.array_equal(model.site_codes([2, 0]), np.eye(4)[[2, 0]])
        for index in (bad.site_index, 4, -1):
            with pytest.raises(UnknownSite):
                model.site_codes([0, index])
        with pytest.raises(UnknownSite):
            model.harmonize_many([m], bad)

    def test_failed_save_leaves_no_stale_sidecar(self, kind, tmp_path, monkeypatch):
        # a sidecar from an earlier save must not describe the weights of a failed one
        path = tmp_path / "model.bin"
        earlier = HarmonizerModel(_tiny_config(kind), seed=0)
        earlier.epoch = 7
        earlier.save(path)

        def refuse(path, text):
            raise IoError(f"cannot write {path}")

        monkeypatch.setattr(deep, "write_text", refuse)
        with pytest.raises(IoError):
            HarmonizerModel(_tiny_config(kind), seed=5).save(path)
        with pytest.raises(IoError):
            HarmonizerModel.load(path)

    @pytest.mark.parametrize("field, value", [("seed", "x"), ("seed", -1), ("epoch", "x")])
    def test_wrong_typed_sidecar_field_is_parse_error(self, kind, tmp_path, field, value):
        path = tmp_path / "model.bin"
        HarmonizerModel(_tiny_config(kind), seed=5).save(path)
        sidecar = json.loads((tmp_path / "model.bin.json").read_text())
        sidecar[field] = value
        (tmp_path / "model.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(ParseError, match=field):
            HarmonizerModel.load(path)

    def test_sidecar_with_cheb_layers_still_loads(self, kind, rng, tmp_path):
        model = HarmonizerModel(_tiny_config(kind), seed=5)
        path = tmp_path / "model.bin"
        model.save(path)
        sidecar = json.loads((tmp_path / "model.bin.json").read_text())
        sidecar["config"]["cheb_layers"] = 2  # written by earlier versions, never read
        (tmp_path / "model.bin.json").write_text(json.dumps(sidecar))
        loaded, _ = HarmonizerModel.load(path)
        assert loaded.config == model.config
        m = random_connectome(rng, N)
        assert loaded.harmonize_many([m], SITES[3])[0] == model.harmonize_many([m], SITES[3])[0]

    def test_parameter_groups_partition(self, kind, rng):
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        encdec = set(map(id, model.encdec_parameters()))
        aux = set(map(id, model.aux_parameters()))
        assert not encdec & aux
        assert len(encdec) + len(aux) == len(model.named_parameters())


def test_gae_inference_holds_one_batch_of_activations():
    # 64 desk-scale (N=32) records in one batch. Recording the whole autodiff
    # graph peaked at 87.8 MB here; without it (no_grad) the peak is 8.9 MB,
    # a few of the batch's (64, 32, 64) activations of 1 MB each at a time
    rng = np.random.default_rng(5)
    matrices = [random_connectome(rng, 32, density=0.5) for _ in range(64)]
    model = HarmonizerModel(ArchitectureConfig.gae_default(32, 4), seed=0)
    model.harmonize_many(matrices[:2], SITES[3])  # first-call allocations
    tracemalloc.start()
    try:
        model.harmonize_many(matrices, SITES[3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


class TestGaeShapes:
    def test_embedding_is_per_node(self, rng):
        model = HarmonizerModel(_tiny_config("gae"), seed=2)
        inputs, _ = model.prepare([random_connectome(rng, N, density=0.8)])
        f = model.encode_batch(inputs)
        assert f.data.shape == (1, N, model.config.embedding_dim)
        assert inputs.shape == (1, N, N)
        assert model.encode_batch(inputs).data[0].shape == (N, model.config.embedding_dim)

    def test_reconstruction_is_symmetric_zero_diagonal(self, rng):
        # exactly: harmonize_many rounds the raw GAE output without re-symmetrizing it
        model = HarmonizerModel(_tiny_config("gae"), seed=2)
        ms = [random_connectome(rng, N, density=d) for d in (0.3, 0.6, 0.8, 1.0, 0.8)]
        inputs, _ = model.prepare(ms)
        raw = model.decode_batch(model.encode_batch(inputs), model.site_codes([0, 1, 2, 1, 0]), inputs).data
        assert raw.shape == (len(ms), N, N)
        assert np.array_equal(raw, raw.transpose(0, 2, 1))
        assert np.all(np.diagonal(raw, axis1=1, axis2=2) == 0.0)


class TestTraining:
    def test_smoke_train_reduces_loss_fae(self):
        cohort = _small_cohort()
        model = HarmonizerModel(_tiny_config("fae"), seed=1)
        model, history = train(model, cohort, TrainingConfig(epochs=30, batch_size=8, seed=2))
        assert len(history.records) == 30
        assert history.records[-1].mae_loss < history.records[0].mae_loss

    def test_smoke_train_reduces_loss_gae(self):
        cohort = _small_cohort()
        model = HarmonizerModel(_tiny_config("gae"), seed=1)
        model, history = train(model, cohort, TrainingConfig(epochs=15, batch_size=8, seed=2))
        assert history.records[-1].mae_loss < history.records[0].mae_loss

    def test_deterministic(self):
        cohort = _small_cohort()
        runs = []
        for _ in range(2):
            model = HarmonizerModel(_tiny_config("fae"), seed=4)
            model, history = train(model, cohort, TrainingConfig(epochs=3, batch_size=8, seed=4))
            runs.append((history.records[-1].total_loss, model.snapshot()))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])

    def test_plateau_reduces_learning_rate(self):
        cohort = _small_cohort(n_subjects=6)
        # batch normalization makes the epoch loss depend on batch composition,
        # so use plain layers to hold the loss exactly constant
        model = HarmonizerModel(_tiny_config("fae", norm="none"), seed=0)
        # a vanishing learning rate stalls the loss below the improvement
        # threshold, so the scheduler must cut the rate every `patience` epochs
        hyper = TrainingConfig(epochs=17, batch_size=4, lr_encdec=1e-9, lr_aux=1e-9, seed=0)
        _, history = train(model, cohort, hyper)
        rates = [r.lr_encdec for r in history.records]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        # epoch 1 sets the best loss; cuts land after each 5-epoch stall
        assert rates[-1] == pytest.approx(1e-9 * 0.9**3, rel=1e-9)

    def test_keeps_the_epoch_select_best_epoch_picks(self):
        cohort = _small_cohort()
        hyper = TrainingConfig(epochs=10, batch_size=8, seed=0)  # best epoch 8 of 0..9
        model = HarmonizerModel(_tiny_config("fae"), seed=0)
        _, (sources, targets), high, baseline = training_inputs(model, cohort, hyper)
        model, history = train(model, cohort, hyper)
        best = select_best_epoch(history, baseline)
        assert best < len(history.records) - 1  # the restore must change the model
        kept = np.diagonal(pairwise_distances(model.harmonize_many(sources, high), targets)).mean()
        assert float(kept) == history.records[best].val_mae
        assert model.epoch == len(history.records)

    def test_validation_metrics_recorded(self):
        cohort = _small_cohort()
        model = HarmonizerModel(_tiny_config("fae"), seed=1)
        _, history = train(model, cohort, TrainingConfig(epochs=2, batch_size=8, seed=1))
        rec = history.records[-1]
        assert np.isfinite(rec.val_mae)
        assert 0.0 <= rec.val_fa <= 1.0
        assert rec.lam == lambda_schedule(1)

    def test_batch_size_validated(self):
        cohort = _small_cohort(n_subjects=3)
        model = HarmonizerModel(_tiny_config("fae"), seed=0)
        with pytest.raises(ValidationError):
            train(model, cohort, TrainingConfig(epochs=1, batch_size=512))

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_validated(self, epochs):
        with pytest.raises(ValidationError):
            TrainingConfig(epochs=epochs)

    def test_training_site_outside_the_model(self):
        cohort = _small_cohort(n_subjects=4)
        config = _tiny_config("fae")
        config.n_sites = 3  # the cohort also uses site index 3
        with pytest.raises(UnknownSite):
            train(HarmonizerModel(config, seed=0), cohort, TrainingConfig(epochs=1, batch_size=8))


class TestBestEpoch:
    def test_score_minimization(self):
        records = [
            EpochRecord(0, 0, 0, 0, 0, 0, val_mae=4.0, val_fa=0.1, lr_encdec=0, lr_aux=0),
            EpochRecord(1, 0, 0, 0, 0, 0, val_mae=2.0, val_fa=0.5, lr_encdec=0, lr_aux=0),
            EpochRecord(2, 0, 0, 0, 0, 0, val_mae=2.0, val_fa=0.4, lr_encdec=0, lr_aux=0),
        ]
        # scores with baseline 4: 1-0.1=0.9, 0.5-0.5=0.0, 0.5-0.4=0.1
        assert select_best_epoch(TrainingHistory(records=records), baseline_mae=4.0) == 1

    def test_earliest_tie_wins(self):
        records = [
            EpochRecord(0, 0, 0, 0, 0, 0, val_mae=2.0, val_fa=0.5, lr_encdec=0, lr_aux=0),
            EpochRecord(1, 0, 0, 0, 0, 0, val_mae=2.0, val_fa=0.5, lr_encdec=0, lr_aux=0),
        ]
        assert select_best_epoch(TrainingHistory(records=records), baseline_mae=1.0) == 0

    def test_empty_history(self):
        with pytest.raises(EmptyInput):
            select_best_epoch(TrainingHistory(), baseline_mae=1.0)

    def test_invalid_baseline(self):
        records = [EpochRecord(0, 0, 0, 0, 0, 0, 1.0, 0.0, 0, 0)]
        with pytest.raises(ValidationError):
            select_best_epoch(TrainingHistory(records=records), baseline_mae=0.0)


class TestExportEmbeddings:
    @pytest.mark.parametrize("kind", ["fae", "gae"])
    def test_csv_layout(self, kind):
        cohort = _small_cohort(n_subjects=3)
        model = HarmonizerModel(_tiny_config(kind), seed=0)
        csv = export_embeddings(model, cohort)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("subject_id,site_index,e0,")
        assert len(lines) == 1 + len(cohort.subjects)
        k = model.config.embedding_dim
        assert len(lines[1].split(",")) == 2 + k
