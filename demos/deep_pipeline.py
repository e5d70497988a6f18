"""Adversarial autoencoder harmonization walkthrough (scaled down to run in
about a minute; pass --full for the acceptance-scale 200-epoch run).

The model reconstructs each connectome conditioned on its own site while a
site classifier, connected through a gradient reversal layer, pushes the
embedding toward site invariance. Harmonization then re-decodes the
embedding under the target site's code.

Run:  python3 demos/deep_pipeline.py [--arch fae|gae] [--full]
"""

import argparse
import time

from scharm import split_cohort
from scharm.augment import augment_cohort
from scharm.core import highest_quality_site, lowest_quality_site, pair_by_subject
from scharm.deep import ArchitectureConfig, HarmonizerModel, TrainingConfig, train
from scharm.evaluation import edge_metrics, fingerprint_accuracy, pairwise_distances
from scharm.synthetic import default_cohort

parser = argparse.ArgumentParser()
parser.add_argument("--arch", choices=["fae", "gae"], default="fae")
parser.add_argument("--full", action="store_true",
                    help="200 epochs with +200 mixup children per site")
args = parser.parse_args()

cohort, _ = default_cohort(seed=7)
cohort = split_cohort(cohort, (0.8, 0.1, 0.1), seed=7)
per_site, epochs = (200, 200) if args.full else (40, 30)
train_cohort = augment_cohort(cohort, per_site=per_site, seed=11)
print(f"training on {len(train_cohort.records(split='train'))} matrices "
      f"({per_site} mixup children per site), {epochs} epochs\n")

if args.arch == "fae":
    config = ArchitectureConfig.fae_default(cohort.n_nodes, len(cohort.sites))
else:
    config = ArchitectureConfig.gae_default(cohort.n_nodes, len(cohort.sites))
model = HarmonizerModel(config, seed=1)

t0 = time.time()
model, history = train(model, train_cohort, TrainingConfig(epochs=epochs, seed=3))
print(f"\ntrained in {time.time() - t0:.0f} s")
first, last = history.records[0], history.records[-1]
print(f"loss {first.total_loss:.2f} -> {last.total_loss:.2f} "
      f"(reconstruction {last.mae_loss:.2f}, site CE {last.ce_loss:.2f})")

low = lowest_quality_site(cohort.sites)
high = highest_quality_site(cohort.sites)
pairs = pair_by_subject(cohort.records(site_index=low.site_index),
                        cohort.records(site_index=high.site_index))
lows = [s.matrix for s, _ in pairs]
targets = [t.matrix for _, t in pairs]
harmonized = model.harmonize_many(lows, high)

mae = edge_metrics(harmonized, targets)["MAE"][0]
raw = edge_metrics(lows, targets)["MAE"][0]
fa = fingerprint_accuracy(pairwise_distances(harmonized, targets))
print(f"\nlowest->highest MAE: unharmonized {raw:.3f}, harmonized {mae:.3f}")
print(f"fingerprinting accuracy over {len(pairs)} subjects: {fa:.3f} "
      f"(chance {1 / len(pairs):.3f})")
