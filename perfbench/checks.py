"""Output checks made apart from the program.

The reference for a served answer is eq. (6) of the paper,
``p(y | x) = 1/N sum_s softmax(f(x; mu + sigma * eps_s))``, computed here
in plain NumPy from the ``(mu, sigma)`` arrays of the saved posterior file
(read with ``numpy.load``, not with the program's loader) and with this
module's own normal draws.  A served answer is itself an ``N``-pass Monte
Carlo estimate, so the comparison uses tolerances, stated below, that
cover Monte Carlo disagreement with a wide margin.  They catch a service
that answers from one pass instead of the average (standardised distance
21, top-1 share 0.89 in a trial) or from another network; on the lightly
trained serving posterior they do not catch a weight sigma scaled by 0 or
1.3, whose answers stay within the limits.
"""

from __future__ import annotations

import numpy as np

#: Monte Carlo passes of the reference estimate.
REFERENCE_PASSES = 200
#: Rows a served probability vector may differ from summing to one by.
SUM_TOLERANCE = 1e-9

#: Agreement with eq. (6), stated per datapath:
#:
#: * ``top1_share`` — minimum share of *decisive* images whose served top-1
#:   label equals the reference's.  An image is decisive when the
#:   reference's top-1 margin exceeds ``DECISIVE_Z`` Monte Carlo standard
#:   errors of an N-pass margin (plus twice ``allowance``), so an N-pass
#:   estimate should not flip it.
#: * ``shift`` — maximum distance between the served and the reference
#:   mean probability of the reference's top-1 class.
#: * ``mean_z2`` — maximum mean, over images and classes, of the squared
#:   served-minus-reference probability divided by its Monte Carlo
#:   variance (per-pass variance over N served passes and over the
#:   reference passes, plus ``allowance`` squared).  It is about 1 for
#:   independent normal epsilons and far above the limit (21 in a trial)
#:   for a service that answers from one pass instead of the average.
#:
#: The float limits are wider than Monte Carlo error alone because a
#: BNNWallace stream keeps the second moment of its 2,048-number pool for
#: its whole life: each stream is a slightly wrong-variance source, and the
#: served answers of one seed shift by up to 0.045 in top-1 probability
#: (``mean_z2`` up to 3.0) where NumPy epsilons stay within one standard
#: error (see the FOUND line in CHANGES.md).  The 8-bit fixed-point
#: datapath's answers are 0.07-0.10 less confident than eq. (6) in every
#: run, so it gets a quantization allowance and a wider shift limit.
FLOAT_TOLERANCE = {"top1_share": 0.97, "shift": 0.12, "mean_z2": 12.0, "allowance": 1e-3}
QUANTIZED_TOLERANCE = {"top1_share": 0.97, "shift": 0.20, "mean_z2": 12.0, "allowance": 0.03}
DECISIVE_Z = 4.0

#: Independent generator instances in a GRNG side draw, samples per
#: instance, and the z-score a moment may sit from its law.  Samples of one
#: instance are correlated (Wallace pools conserve their sum of squares;
#: RLF outputs come from slowly stepped shift-register states), so the
#: central-limit bound is taken across instances, whose moments are
#: independent.
SIDE_DRAW_INSTANCES = 32
SIDE_DRAW_SAMPLES = 32768
SIDE_DRAW_Z = 5.0


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def read_posterior(path) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """``(mu_w, sigma_w, mu_b, sigma_b)`` per layer from a saved ``.npz``."""
    with np.load(path) as data:
        layers = []
        index = 0
        while f"layer{index}_mu_weights" in data:
            layers.append(
                tuple(
                    np.array(data[f"layer{index}_{key}"])
                    for key in ("mu_weights", "sigma_weights", "mu_bias", "sigma_bias")
                )
            )
            index += 1
    if not layers:
        raise ValueError(f"{path}: no posterior layers")
    return layers


def reference_probabilities(posterior, x: np.ndarray, seed: int):
    """Eq. (6) over ``REFERENCE_PASSES`` independently sampled networks.

    Returns the mean probabilities and their per-pass variance.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    total = np.zeros((x.shape[0], posterior[-1][0].shape[1]))
    total_sq = np.zeros_like(total)
    last = len(posterior) - 1
    for _ in range(REFERENCE_PASSES):
        hidden = x
        for index, (mu_w, sigma_w, mu_b, sigma_b) in enumerate(posterior):
            w = mu_w + sigma_w * rng.standard_normal(mu_w.shape)
            b = mu_b + sigma_b * rng.standard_normal(mu_b.shape)
            hidden = hidden @ w + b
            if index < last:
                hidden = np.maximum(hidden, 0.0)
        probs = softmax(hidden)
        total += probs
        total_sq += probs * probs
    mean = total / REFERENCE_PASSES
    return mean, np.maximum(total_sq / REFERENCE_PASSES - mean * mean, 0.0)


def probability_rows_failures(rows: np.ndarray) -> list[str]:
    """Every row must be a finite, non-negative vector summing to one."""
    problems = []
    if rows.ndim != 2 or rows.shape[0] == 0:
        return [f"served rows have shape {rows.shape}"]
    if not np.all(np.isfinite(rows)):
        problems.append("served rows hold non-finite values")
    if np.any(rows < 0):
        problems.append("served rows hold negative probabilities")
    worst = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
    if worst > SUM_TOLERANCE:
        problems.append(f"a served row sums to 1 {worst:+.3g}")
    return problems


def agreement(
    served: np.ndarray, reference, n_samples: int, allowance: float
) -> dict[str, float]:
    mean, variance = reference
    mc_variance = variance / n_samples + variance / REFERENCE_PASSES + allowance**2
    order = np.argsort(mean, axis=1)
    rows = np.arange(mean.shape[0])
    top, second = order[:, -1], order[:, -2]
    margin = mean[rows, top] - mean[rows, second]
    spread = np.sqrt(variance[rows, top]) + np.sqrt(variance[rows, second])
    decisive = margin > DECISIVE_Z * spread / np.sqrt(n_samples) + 2 * allowance
    agree = served.argmax(axis=1) == top
    shift = served[rows, top] - mean[rows, top]
    return {
        "shift": float(shift.mean()),
        "decisive": int(decisive.sum()),
        "top1_share": float(agree[decisive].mean()) if decisive.any() else 0.0,
        "mean_z2": float(np.mean((served - mean) ** 2 / mc_variance)),
    }


def agreement_failures(measured: dict[str, float], tolerance: dict[str, float]) -> list[str]:
    problems = []
    if measured["top1_share"] < tolerance["top1_share"]:
        problems.append(
            f"top-1 agreement with eq. (6) on {measured['decisive']} decisive "
            f"images {measured['top1_share']:.3f} < {tolerance['top1_share']}"
        )
    if abs(measured["shift"]) > tolerance["shift"]:
        problems.append(
            f"top-1 probability shift from eq. (6) {measured['shift']:+.4f} "
            f"beyond {tolerance['shift']}"
        )
    if measured["mean_z2"] > tolerance["mean_z2"]:
        problems.append(
            f"Monte Carlo-standardized squared distance from eq. (6) "
            f"{measured['mean_z2']:.3f} > {tolerance['mean_z2']}"
        )
    return problems


def moment_failures(
    label: str, draws: np.ndarray, mean: float, variance: float
) -> list[str]:
    """Central-limit check of a ``(instances, samples)`` side draw.

    The grand mean and grand variance must sit within ``SIDE_DRAW_Z``
    standard errors of the law's ``mean`` and ``variance``; the standard
    errors come from the spread of the per-instance moments.
    """
    instances = draws.shape[0]
    means = draws.mean(axis=1)
    variances = draws.var(axis=1)
    problems = []
    for name, values, expected in (
        ("mean", means, mean),
        ("variance", variances, variance),
    ):
        error = values.std(ddof=1) / np.sqrt(instances)
        deviation = abs(values.mean() - expected)
        if not np.isfinite(deviation) or deviation > SIDE_DRAW_Z * error:
            problems.append(
                f"{label} {name} {values.mean():.5f} is {deviation / error:.1f} "
                f"standard errors from {expected}"
            )
    return problems
