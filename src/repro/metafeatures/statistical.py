"""Statistical and information-theoretic meta-features (Table 10)."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_X_y


def _safe_stats(values: np.ndarray) -> dict[str, float]:
    if values.size == 0:
        return {"std": 0.0, "mean": 0.0, "max": 0.0, "min": 0.0}
    return {
        "std": float(np.std(values)),
        "mean": float(np.mean(values)),
        "max": float(np.max(values)),
        "min": float(np.min(values)),
    }


def statistical_metafeatures(X, y) -> dict[str, float]:
    """Skewness / kurtosis / class-probability / PCA meta-features."""
    from scipy import stats  # imported on use: scipy is slow to import

    X, y = check_X_y(X, y)
    n_samples, n_features = X.shape

    skews = np.array([stats.skew(X[:, j]) for j in range(n_features)])
    kurts = np.array([stats.kurtosis(X[:, j]) for j in range(n_features)])
    skews = np.nan_to_num(skews)
    kurts = np.nan_to_num(kurts)

    _, counts = np.unique(y, return_counts=True)
    class_probs = counts / n_samples

    skew_stats = _safe_stats(skews)
    kurt_stats = _safe_stats(kurts)
    prob_stats = _safe_stats(class_probs)

    # PCA meta-features: first principal component and 95%-variance fraction.
    centered = X - X.mean(axis=0)
    scale = centered.std(axis=0)
    scale[scale == 0] = 1.0
    standardized = centered / scale
    try:
        _, singular_values, v_transpose = np.linalg.svd(standardized, full_matrices=False)
        first_pc = standardized @ v_transpose[0]
        explained = singular_values ** 2
        explained = explained / explained.sum() if explained.sum() > 0 else explained
        cumulative = np.cumsum(explained)
        n_for_95 = int(np.searchsorted(cumulative, 0.95) + 1)
        pca_skew = float(np.nan_to_num(stats.skew(first_pc)))
        pca_kurt = float(np.nan_to_num(stats.kurtosis(first_pc)))
        pca_fraction = n_for_95 / n_features
    except np.linalg.LinAlgError:
        pca_skew, pca_kurt, pca_fraction = 0.0, 0.0, 1.0

    class_entropy = float(stats.entropy(class_probs, base=2))

    return {
        "SkewnessSTD": skew_stats["std"],
        "SkewnessMean": skew_stats["mean"],
        "SkewnessMax": skew_stats["max"],
        "SkewnessMin": skew_stats["min"],
        "KurtosisSTD": kurt_stats["std"],
        "KurtosisMean": kurt_stats["mean"],
        "KurtosisMax": kurt_stats["max"],
        "KurtosisMin": kurt_stats["min"],
        "ClassProbabilitySTD": prob_stats["std"],
        "ClassProbabilityMean": prob_stats["mean"],
        "ClassProbabilityMax": prob_stats["max"],
        "ClassProbabilityMin": prob_stats["min"],
        "PCASkewnessFirstPC": pca_skew,
        "PCAKurtosisFirstPC": pca_kurt,
        "PCAFractionOfComponentsFor95PercentVariance": float(pca_fraction),
        "ClassEntropy": class_entropy,
    }
