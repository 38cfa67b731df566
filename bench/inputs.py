"""Seeded input sets for the workloads.

Each set is a fixed list of templates. The seed only jitters values
within a template (about one percent of the curvature scale, the split
between the end curvatures, S, the sign) so that every seed gives new
inputs of nearly the same cost, and every run does the same mix of work.
"""

from __future__ import annotations

import random

from oracle import Gcs

# synth-stiff: (|kappa|*S at the stiff end, r, kappa0/kappa1 split), in
# order of cost. A negative split puts an inflection inside (0, S). The
# middle template takes about 1.3 times as long as the next cheaper one
# and 0.7 times as long as the next dearer, and it is drawn three times,
# so the median operation is the median of those three profiles' times:
# it rests on three times as many operations and does not flip between
# two templates of nearly equal cost.
STIFF_TEMPLATES = (
    (40.0, 20.0, 0.5),
    (60.0, 0.0, -1.0),
    (50.0, 1.0, 0.3),
    (100.0, 0.0, 0.2),
    (80.0, -0.9, 0.4),
    (150.0, 2.0, -0.5),
    (200.0, 1.0, -0.4),
    (200.0, 1.0, -0.4),
    (200.0, 1.0, -0.4),
    (250.0, 0.0, 0.1),
    (300.0, 0.5, -0.3),
    (250.0, 5.0, 0.1),
    (300.0, 100.0, 0.05),
    (200.0, -0.5, 0.25),
    (300.0, -0.99, -0.6),
)
STIFF_SAMPLES = 256

# interrogate and cli-session: gentle profiles without inflection,
# (|kappa|*S at the stiff end, r, kappa0/kappa1 split).
GENTLE_TEMPLATES = (
    (6.0, 1.0, 0.3),
    (4.0, -0.5, 0.5),
    (8.0, 2.0, 0.25),
    (3.0, 5.0, 0.4),
    (10.0, -0.9, 0.6),
    (5.0, 0.5, 0.35),
)

# interrogate: profiles with an inflection, the same for every seed. On
# these the sampled gradient fit misses the closed form (a known fault),
# and the miss is counted as a failed operation.
INFLECTED = (
    Gcs(-1.0, 2.0, 3.0, 1.0),
    Gcs(2.0, -1.0, 3.0, -0.5),
    Gcs(-2.0, 1.0, 2.0, 0.5),
)
INTERROGATE_SAMPLES = 4096

# cli-session: one `figures` run, then the command list for each of two
# profiles drawn from the first gentle template, so the two `gradient`
# runs, where the median operation falls, cost the same and pool.
CLI_PROFILES = 2


def _jittered(rng: random.Random, scale: float, r: float, split: float) -> Gcs:
    S = rng.uniform(1.8, 2.2)
    k_stiff = scale * rng.uniform(0.99, 1.01) / S
    k_soft = k_stiff * (split + rng.uniform(-0.01, 0.01))
    if r != 0.0:
        r = max(r * rng.uniform(0.99, 1.01), -0.99)
    sign = rng.choice((1.0, -1.0))
    # The stiff end is kappa1 for r > 0 templates and kappa0 otherwise, so
    # both ends and both curvature signs carry the large value somewhere.
    k0, k1 = (k_soft, k_stiff) if r >= 0.0 else (k_stiff, k_soft)
    return Gcs(sign * k0, sign * k1, S, r)


def stiff_profiles(seed: int) -> list[Gcs]:
    rng = random.Random(f"synth-stiff:{seed}")
    return [_jittered(rng, *t) for t in STIFF_TEMPLATES]


def interrogate_profiles(seed: int) -> list[Gcs]:
    rng = random.Random(f"interrogate:{seed}")
    return [_jittered(rng, *t) for t in GENTLE_TEMPLATES] + list(INFLECTED)


def cli_profiles(seed: int) -> list[Gcs]:
    rng = random.Random(f"cli-session:{seed}")
    return [_jittered(rng, *GENTLE_TEMPLATES[0]) for _ in range(CLI_PROFILES)]
