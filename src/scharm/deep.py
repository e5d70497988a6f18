"""Site-conditioned adversarial autoencoders for connectome harmonization.

Two architectures share one five-part layout: an encoder producing a
site-invariant embedding, a site-classifier trained adversarially through a
gradient reversal layer, a site-mapper embedding the target-site one-hot
code, a latent-fusion stage (concatenation for the fully connected model,
AdaIN for the graph model), and a decoder reconstructing the connectome
conditioned on the fused representation.

Training, inference and embedding export run on one BLAS thread
(`blas.one_thread`): matrix-product bytes depend on the thread count, and one
seed must give one model on any host. Inference and embedding export record
no autodiff graph (`autodiff.no_grad`), and that alone puts the FAE's hidden
BatchNorm layers on their running statistics: a forward pass outside
`no_grad` is a training pass, which moves them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import checkpoint
from .autodiff import (
    AdamState,
    Tensor,
    adam_step,
    concat,
    grad_reversal,
    no_grad,
    sigmoid_bce,
    softmax_cross_entropy,
    weighted_mae_loss,
    zero_grads,
)
from .blas import one_thread
from .core import (
    CohortManifest,
    ConnectivityMatrix,
    SiteDescriptor,
    devectorize,
    edge_count,
    highest_quality_site,
    lowest_quality_site,
    pair_by_subject,
    round_counts,
    substream,
    vectorize_many,
)
from .errors import (
    DimensionMismatch,
    EmptyCohort,
    EmptyInput,
    NonFiniteLoss,
    ParseError,
    UnknownSite,
    ValidationError,
)
from .evaluation import fingerprint_accuracy, pairwise_distances
from .io import json_int, read_json, staged, write_text
from .metrics import normalized_laplacian
from .nn import AdaInConditioner, ChebConv, Dense, MLP, Module, UnitNorm


@dataclass
class ArchitectureConfig:
    kind: str  # "fae" | "gae"
    n_nodes: int
    n_sites: int
    embedding_dim: int = 64
    encoder_widths: list[int] = field(default_factory=lambda: [512, 128])
    decoder_widths: list[int] = field(default_factory=lambda: [128, 512])
    classifier_widths: list[int] = field(default_factory=lambda: [64])
    mapper_widths: list[int] = field(default_factory=lambda: [32])
    cheb_order: int = 3
    gae_hidden: int = 64
    norm: str = "batch"  # FAE hidden normalization
    edge_loss_weight: float = 2.5
    bce_enabled: bool = False

    def __post_init__(self):
        if self.kind not in ("fae", "gae"):
            raise ValidationError(f"unknown architecture kind {self.kind!r}")
        widths = [self.encoder_widths, self.decoder_widths, self.classifier_widths, self.mapper_widths]
        if not all(isinstance(w, list) for w in widths):
            raise ValidationError("layer widths must be lists")
        counts = [self.n_nodes, self.n_sites, self.embedding_dim, self.gae_hidden] + sum(widths, [])
        if not all(isinstance(v, int) and v > 0 for v in counts):
            raise ValidationError("node, site and layer counts must be positive integers")
        if not (isinstance(self.cheb_order, int) and self.cheb_order >= 0):
            raise ValidationError(f"cheb_order must be an integer >= 0, got {self.cheb_order!r}")
        if not (isinstance(self.edge_loss_weight, (int, float)) and 1 <= self.edge_loss_weight < np.inf):
            raise ValidationError(f"edge_loss_weight must be finite and >= 1, got {self.edge_loss_weight!r}")
        if self.norm not in ("batch", "layer", "none"):
            raise ValidationError(f"unknown norm {self.norm!r}")
        if not isinstance(self.bce_enabled, bool):
            raise ValidationError(f"bce_enabled must be true or false, got {self.bce_enabled!r}")

    @classmethod
    def fae_default(cls, n_nodes: int, n_sites: int) -> "ArchitectureConfig":
        # one wide hidden layer converges much faster than a deep funnel at
        # desk scale, which matters within a fixed 200-epoch budget
        return cls(kind="fae", n_nodes=n_nodes, n_sites=n_sites, embedding_dim=64,
                   encoder_widths=[1024], decoder_widths=[1024], bce_enabled=False)

    @classmethod
    def gae_default(cls, n_nodes: int, n_sites: int) -> "ArchitectureConfig":
        return cls(kind="gae", n_nodes=n_nodes, n_sites=n_sites, embedding_dim=32, bce_enabled=True)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ArchitectureConfig":
        try:
            return cls(**payload)
        except TypeError as e:  # an unknown or missing field, or a mistyped value
            raise ValidationError(f"bad architecture config: {e}") from e


@dataclass
class EpochRecord:
    epoch: int
    total_loss: float
    mae_loss: float
    ce_loss: float
    bce_loss: float
    lam: float
    val_mae: float
    val_fa: float
    lr_encdec: float
    lr_aux: float


@dataclass
class TrainingHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"records": [asdict(r) for r in self.records]}

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainingHistory":
        return cls(records=[EpochRecord(**r) for r in payload["records"]])


class HarmonizerModel(Module):
    """Parameter container for one architecture plus encode/decode plumbing."""

    def __init__(self, config: ArchitectureConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        rng = substream(seed, "init", config.kind)
        c = config
        k = c.embedding_dim
        if c.kind == "fae":
            d = edge_count(c.n_nodes)
            self.encoder = MLP(rng, [d] + c.encoder_widths + [k], norm=c.norm)
            # sphere-normalized embedding keeps the adversarial game bounded
            self.embed_norm = UnitNorm()
            self.decoder = MLP(rng, [2 * k] + c.decoder_widths + [d], norm=c.norm)
            self.conditioners = []
        else:
            self.enc_convs = [
                ChebConv(rng, c.n_nodes, c.gae_hidden, c.cheb_order, norm="layer", act="relu"),
                ChebConv(rng, c.gae_hidden, k, c.cheb_order, norm="none", act="none"),
            ]
            # decoder: per-node dense, two ChebConv blocks, per-node linear head;
            # every block is followed by its own AdaIN conditioner on f_M
            self.dec_dense = Dense(rng, k, c.gae_hidden, norm="none", act="none")
            self.dec_convs = [
                ChebConv(rng, c.gae_hidden, c.gae_hidden, c.cheb_order, norm="none", act="none"),
                ChebConv(rng, c.gae_hidden, k, c.cheb_order, norm="none", act="none"),
            ]
            self.head = Dense(rng, k, c.n_nodes, norm="none", act="none")
            self.conditioners = [
                AdaInConditioner(rng, k, c.gae_hidden),
                AdaInConditioner(rng, k, c.gae_hidden),
                AdaInConditioner(rng, k, k),
            ]
        cls_in = k if c.kind == "fae" else 2 * k
        # sphere-normalized classifier input keeps the adversarial game bounded
        self.pool_norm = UnitNorm()
        self.classifier = MLP(rng, [cls_in] + c.classifier_widths + [c.n_sites])
        self.mapper = MLP(rng, [c.n_sites] + c.mapper_widths + [k])
        self.epoch = 0

    # -- parameter bookkeeping ------------------------------------------------

    def encdec_parameters(self) -> list[Tensor]:
        """Encoder, decoder and latent-fusion parameters (main learning-rate group)."""
        aux = set(map(id, self.aux_parameters()))
        return [p for p in self.parameters() if id(p) not in aux]

    def aux_parameters(self) -> list[Tensor]:
        """Site-classifier and site-mapper parameters (auxiliary group)."""
        return self.classifier.parameters() + self.mapper.parameters()

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: p.data for name, p in self.named_parameters().items()}
        arrays.update(self.named_buffers())
        return arrays

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter and buffer; the checkpoint must name exactly these."""
        state = self.state_arrays()
        unknown = sorted(set(arrays) - set(state))
        if unknown:
            raise ValidationError(f"unknown tensor {unknown[0]!r} in checkpoint")
        missing = sorted(set(state) - set(arrays))
        if missing:
            raise ValidationError(f"checkpoint lacks {len(missing)} tensor(s), first {missing[0]!r}")
        for name, arr in arrays.items():
            if state[name].shape != arr.shape:
                raise DimensionMismatch(f"{name}: {arr.shape} vs {state[name].shape}")
            state[name][...] = arr

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays().items()}

    # -- data layout -----------------------------------------------------------

    def prepare(self, matrices: list[ConnectivityMatrix]) -> tuple[np.ndarray, np.ndarray]:
        """(inputs, targets) of a batch. FAE: log1p edge rows and edge rows. GAE:
        Laplacians rescaled with lambda_max fixed at 2 (L - I, spectrum in [-1, 1])
        and float matrices. DimensionMismatch for a matrix of another node count."""
        for m in matrices:
            if m.n != self.config.n_nodes:
                raise DimensionMismatch(f"matrix has {m.n} nodes, model expects {self.config.n_nodes}")
        if self.config.kind == "fae":
            edges = vectorize_many(matrices)
            return np.log1p(edges), edges
        laps = np.stack([normalized_laplacian(m) - np.eye(m.n) for m in matrices])
        return laps, np.stack([m.values.astype(np.float64) for m in matrices])

    def site_codes(self, site_indices) -> np.ndarray:
        """One-hot site codes, one row per index; UnknownSite for an index outside the model."""
        idx = np.asarray(site_indices, dtype=int)
        outside = idx[(idx < 0) | (idx >= self.config.n_sites)]
        if outside.size:
            raise UnknownSite(f"site index {outside[0]} outside the model's {self.config.n_sites} sites")
        return np.eye(self.config.n_sites)[idx]

    # -- forward passes ---------------------------------------------------------

    def encode_batch(self, inputs: np.ndarray) -> Tensor:
        """Embedding of prepared inputs: (B, K) for FAE, (B, N, K) for GAE."""
        if self.config.kind == "fae":
            return self.embed_norm(self.encoder(Tensor(inputs)))
        h = Tensor(np.broadcast_to(np.eye(self.config.n_nodes), inputs.shape).copy())
        for conv in self.enc_convs:
            h = conv(h, Tensor(inputs))
        return h

    def classify_logits(self, f_e: Tensor, lam: float = 0.0) -> Tensor:
        rev = grad_reversal(f_e, lam)
        if self.config.kind == "gae":
            pooled = self.pool_norm(concat([rev.mean(axis=1), rev.max(axis=1)], axis=1))
        else:
            pooled = rev
        return self.classifier(pooled)

    def decode_batch(self, f_e: Tensor, codes: np.ndarray, inputs: np.ndarray) -> Tensor:
        """Raw (pre-rounding) reconstruction from one-hot site `codes` and prepared
        inputs: (B, D) for FAE, (B, N, N) for GAE."""
        f_m = self.mapper(Tensor(codes))
        if self.config.kind == "fae":
            fused = concat([f_e, f_m], axis=1)
            return self.decoder(fused)
        h = self.dec_dense(f_e)
        h = self.conditioners[0](h, f_m).relu()
        lap_t = Tensor(inputs)
        h = self.dec_convs[0](h, lap_t)
        h = self.conditioners[1](h, f_m).relu()
        h = self.dec_convs[1](h, lap_t)
        h = self.conditioners[2](h, f_m).relu()
        z = self.head(h)  # (B, N, N)
        sym = (z + z.transpose(0, 2, 1)) * 0.5
        mask = 1.0 - np.eye(self.config.n_nodes)
        return sym * Tensor(mask[None, :, :])

    def _postprocess(self, raw: np.ndarray) -> ConnectivityMatrix:
        if self.config.kind == "fae":
            return devectorize(round_counts(raw), self.config.n_nodes)
        return ConnectivityMatrix(round_counts(raw))  # decode_batch is symmetric, zero diagonal

    @one_thread()
    @no_grad()
    def harmonize_many(self, matrices: list[ConnectivityMatrix],
                       target_site: SiteDescriptor) -> list[ConnectivityMatrix]:
        if not matrices:
            return []
        inputs, _ = self.prepare(matrices)
        codes = self.site_codes(np.full(len(matrices), target_site.site_index))
        raw = self.decode_batch(self.encode_batch(inputs), codes, inputs).data
        return [self._postprocess(r) for r in raw]

    # -- persistence ----------------------------------------------------------

    def save(self, path, history: TrainingHistory | None = None) -> None:
        sidecar = {
            "config": self.config.to_dict(),
            "seed": self.seed,
            "epoch": self.epoch,
            "history": history.to_dict() if history is not None else None,
        }
        with staged(path, str(path) + ".json") as (tensors_path, sidecar_path):
            checkpoint.save_tensors(self.state_arrays(), tensors_path)
            write_text(sidecar_path, json.dumps(sidecar, indent=1))

    @classmethod
    def load(cls, path) -> tuple["HarmonizerModel", TrainingHistory | None]:
        sidecar = read_json(str(path) + ".json")
        try:
            sidecar["config"].pop("cheb_layers", None)  # written by earlier versions, never read
            config = ArchitectureConfig.from_dict(sidecar["config"])
            history = TrainingHistory.from_dict(sidecar["history"]) if sidecar.get("history") else None
            seed, epoch = (json_int(sidecar.get(name, 0), name) for name in ("seed", "epoch"))
        except (KeyError, TypeError, AttributeError) as e:
            raise ParseError(f"{path}.json: malformed sidecar: {type(e).__name__} {e}") from e
        for name, value in (("seed", seed), ("epoch", epoch)):
            if value < 0:
                raise ParseError(f"{path}.json: {name} must be >= 0, got {value}")
        model = cls(config, seed=seed)
        model.epoch = epoch
        model.load_state_arrays(checkpoint.load_tensors(path))
        return model, history


# plateau scheduler: PLATEAU_PATIENCE epochs without a PLATEAU_THRESHOLD gain cut both rates
PLATEAU_FACTOR = 0.9
PLATEAU_PATIENCE = 5
PLATEAU_THRESHOLD = 1e-5
LAMBDA_WARMUP_EPOCHS, LAMBDA_GAMMA = 100, 10.0  # adversarial weight ramp


def lambda_schedule(epoch: int) -> float:
    """Adversarial weight ramp: 2 / (1 + exp(-LAMBDA_GAMMA * p)) - 1 with progress
    p = min(epoch / LAMBDA_WARMUP_EPOCHS, 1); zero at epoch 0, ~1 after warmup."""
    if epoch < 0:
        raise ValidationError(f"epoch must be >= 0, got {epoch}")
    p = min(epoch / LAMBDA_WARMUP_EPOCHS, 1.0)
    return 2.0 / (1.0 + np.exp(-LAMBDA_GAMMA * p)) - 1.0


@dataclass
class TrainingConfig:
    epochs: int = 200
    batch_size: int = 32
    lr_encdec: float = 1e-2
    lr_aux: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name, value in (("epochs", self.epochs), ("batch_size", self.batch_size)):
            if type(value) is not int or value < 1:  # a bool is not an epoch count
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


def _validation_scores(harmonized: list[ConnectivityMatrix],
                       targets: list[ConnectivityMatrix]) -> tuple[float, float]:
    """(edge MAE, fingerprinting accuracy) of harmonized against target matrices."""
    p = pairwise_distances(harmonized, targets)
    return float(np.diagonal(p).mean()), fingerprint_accuracy(p)


def training_inputs(model: HarmonizerModel, cohort: CohortManifest, hyper: TrainingConfig | None = None):
    """Check every input `train` needs; returns the train records, the validation
    pairs as (lowest-quality, highest-quality) matrix lists, the highest-quality site
    and the unharmonized validation MAE (None without pairs). EmptyCohort, DimensionMismatch,
    UnknownSite, or ValidationError when one batch does not fit or that MAE is 0.
    Without `hyper` the batch size goes unchecked: that is the one check that
    augmenting the train split can change."""
    train_records = cohort.records(split="train")
    if not train_records:
        raise EmptyCohort("no training subjects")
    if hyper is not None and hyper.batch_size > len(train_records):
        raise ValidationError(f"batch size {hyper.batch_size} exceeds {len(train_records)} train records")
    if cohort.n_nodes != model.config.n_nodes:
        raise DimensionMismatch(f"cohort has {cohort.n_nodes} nodes, model expects {model.config.n_nodes}")
    low, high = lowest_quality_site(cohort.sites), highest_quality_site(cohort.sites)
    model.site_codes([r.site.site_index for r in train_records] + [high.site_index])
    val_pairs = pair_by_subject(cohort.records(split="val", site_index=low.site_index),
                                cohort.records(split="val", site_index=high.site_index))
    sources, targets = [s.matrix for s, _ in val_pairs], [t.matrix for _, t in val_pairs]
    baseline_mae = _validation_scores(sources, targets)[0] if val_pairs else None
    if baseline_mae == 0:
        raise ValidationError("validation MAE is 0 before harmonizing: the sites do not differ")
    return train_records, (sources, targets), high, baseline_mae


@one_thread()
def train(model: HarmonizerModel, cohort: CohortManifest,
          hyper: TrainingConfig | None = None) -> tuple[HarmonizerModel, TrainingHistory]:
    """Adversarial self-reconstruction training with per-epoch validation.

    Each sample is reconstructed conditioned on its own site; the classifier
    sees the embedding through the gradient reversal layer. Validation
    harmonizes the lowest-quality-site matrices to the highest-quality site
    and scores edge MAE and fingerprinting accuracy against the observed
    highest-quality matrices; the returned model holds the weights of the
    epoch `select_best_epoch` picks, or of the last epoch without validation.
    """
    hyper = hyper or TrainingConfig()
    cfg = model.config
    train_records, (val_sources, val_targets), high, baseline_mae = training_inputs(model, cohort, hyper)

    matrices = [r.matrix for r in train_records]
    codes = model.site_codes([r.site.site_index for r in train_records])

    opt_encdec = AdamState(model.encdec_parameters())
    opt_aux = AdamState(model.aux_parameters())
    lr_encdec, lr_aux = hyper.lr_encdec, hyper.lr_aux
    best_loss = np.inf
    stall = 0
    history = TrainingHistory()
    best_state = None

    n = len(train_records)
    for epoch in range(hyper.epochs):
        lam = lambda_schedule(epoch)
        order = substream(hyper.seed, "shuffle", epoch).permutation(n)
        sums = np.zeros(4)  # total, MAE, CE and BCE loss, each times its batch size
        for b_start in range(0, n, hyper.batch_size):
            batch = order[b_start : b_start + hyper.batch_size]
            inputs, targets = model.prepare([matrices[i] for i in batch])
            f_e = model.encode_batch(inputs)
            logits = model.classify_logits(f_e, lam=lam)
            recon = model.decode_batch(f_e, codes[batch], inputs)
            l_mae = weighted_mae_loss(recon, targets, cfg.edge_loss_weight)
            l_ce = softmax_cross_entropy(logits, codes[batch])
            total = l_mae + l_ce
            l_bce_val = 0.0
            if cfg.bce_enabled:
                l_bce = sigmoid_bce(recon, (targets > 0).astype(np.float64))
                total = total + l_bce
                l_bce_val = l_bce.data
            if not total.requires_grad:
                raise ValidationError("train records no graph under no_grad(): nothing would be learned")
            if not np.isfinite(total.data):
                raise NonFiniteLoss(epoch, b_start // hyper.batch_size)
            zero_grads(opt_encdec.params)
            zero_grads(opt_aux.params)
            total.backward()
            adam_step(opt_encdec, lr_encdec)
            adam_step(opt_aux, lr_aux)
            sums += np.array([total.data, l_mae.data, l_ce.data, l_bce_val]) * len(batch)
        epoch_loss, mae_loss, ce_loss, bce_loss = map(float, sums / n)

        val_mae, val_fa = np.nan, np.nan
        if val_sources:
            harmonized = model.harmonize_many(val_sources, high)
            val_mae, val_fa = _validation_scores(harmonized, val_targets)

        history.records.append(EpochRecord(
            epoch=epoch, total_loss=epoch_loss, mae_loss=mae_loss, ce_loss=ce_loss, bce_loss=bce_loss,
            lam=lam, val_mae=float(val_mae), val_fa=float(val_fa), lr_encdec=lr_encdec, lr_aux=lr_aux))
        if val_sources and select_best_epoch(history, baseline_mae) == epoch:
            best_state = model.snapshot()

        # plateau scheduler on the training total loss
        if epoch_loss < best_loss - PLATEAU_THRESHOLD:
            best_loss = epoch_loss
            stall = 0
        else:
            stall += 1
            if stall >= PLATEAU_PATIENCE:
                lr_encdec *= PLATEAU_FACTOR
                lr_aux *= PLATEAU_FACTOR
                stall = 0
        model.epoch = epoch + 1

    if best_state is not None:
        model.load_state_arrays(best_state)
    return model, history


def select_best_epoch(history: TrainingHistory, baseline_mae: float) -> int:
    """The epoch `train` keeps: the one minimizing val MAE relative to the
    unharmonized baseline MAE, minus val fingerprinting accuracy; earliest tie wins."""
    if not history.records:
        raise EmptyInput("history has no epochs")
    if baseline_mae <= 0:
        raise ValidationError("baseline_mae must be > 0")
    scores = [r.val_mae / baseline_mae - r.val_fa for r in history.records]
    return int(np.argmin(scores))


@one_thread()
@no_grad()
def export_embeddings(model: HarmonizerModel, cohort: CohortManifest) -> str:
    """CSV dump of encoder embeddings, one row per (subject, site) record;
    GAE embeddings are mean-pooled over nodes to K values."""
    k = model.config.embedding_dim
    lines = [",".join(["subject_id", "site_index"] + [f"e{i}" for i in range(k)])]
    for rec in cohort.subjects:
        emb = model.encode_batch(model.prepare([rec.matrix])[0]).data[0]
        pooled = emb.mean(axis=0) if emb.ndim == 2 else emb
        lines.append(",".join([rec.subject_id, str(rec.site.site_index)] + [f"{v:.10g}" for v in pooled]))
    return "\n".join(lines) + "\n"
