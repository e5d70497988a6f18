"""Linear harmonization walkthrough.

Generates the default synthetic cohort (64 subjects observed at four
simulated acquisition sites), fits the per-edge linear model, harmonizes the
lowest-quality site to the highest-quality one, and brackets the result
between the unharmonized lower bound and the test-retest upper bound.

Run:  python3 demos/linear_pipeline.py
"""

import numpy as np

from scharm import fit_lr, lr_harmonize
from scharm.core import CohortManifest, SubjectRecord, highest_quality_site, lowest_quality_site
from scharm.evaluation import evaluate_cohorts, report_table_csv
from scharm.synthetic import default_cohort, redraw_retest

# --- 1. the cohort -----------------------------------------------------------
cohort, effect = default_cohort(seed=0)
low = lowest_quality_site(cohort.sites)
high = highest_quality_site(cohort.sites)
print(f"cohort: {len(cohort.subjects)} records, {cohort.n_nodes} nodes")
print(f"lowest-quality site {low.site_index} (b={low.b_value:g}, {low.resolution:g} mm), "
      f"highest-quality site {high.site_index} (b={high.b_value:g}, {high.resolution:g} mm)")
shift = effect.offsets(low)[0] - effect.offsets(high)[0]
print(f"injected lowest->highest offset shift: {shift:+.2f} streamlines per edge\n")

# --- 2. fit the per-edge linear model ---------------------------------------
model = fit_lr([r.matrix for r in cohort.subjects], [r.site for r in cohort.subjects])
print(f"fitted {model.d} per-edge models; "
      f"mean |beta1| = {np.abs(model.coefficients[:, 1]).mean():.3f} "
      f"(true {effect.beta1[0]:g})")

# --- 3. harmonize lowest -> highest ------------------------------------------
lows = cohort.records(site_index=low.site_index)
harmonized = CohortManifest(sites=cohort.sites, subjects=[
    SubjectRecord(subject_id=r.subject_id, site=high, matrix=m)
    for r, m in zip(lows, lr_harmonize([r.matrix for r in lows], low, high, model))
])

# --- 4. bracket between the bounds -------------------------------------------
# a second scan of every subject at the highest-quality site
retest = CohortManifest(sites=cohort.sites, subjects=redraw_retest(
    cohort, effect, high, [r.subject_id for r in lows], seed=1))
reports = evaluate_cohorts(harmonized, cohort, retest)
print()
print(report_table_csv(reports))
print("MAE should decrease lower_bound -> harmonized and stay above upper_bound;")
print("FA=1.0 throughout means every subject stays nearest to themselves.")
