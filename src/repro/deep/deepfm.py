"""DeepFM classifier — factorization machine plus a deep ReLU branch.

DeepFM (Guo et al., IJCAI 2017) is one of the two "mainstream deep models
dealing with recommendation tasks" the paper's Section 8 uses to argue that
Auto-FP also applies to deep models.  The model sums two branches that share
the same input features:

* a *wide* branch — the second-order factorization-machine score, which
  captures pairwise feature interactions, and
* a *deep* branch — a small ReLU feed-forward network, which captures
  higher-order, non-multiplicative structure.

Per-class logits are ``fm_score_c(x) + deep_logit_c(x)`` and probabilities
are their softmax, so binary and multi-class targets are handled uniformly.
The original DeepFM consumes sparse categorical fields through a shared
embedding table; this reproduction consumes the already-encoded (one-hot /
numeric) matrix produced by :mod:`repro.deep.datasets`, which exercises the
same preprocessing-sensitivity code path the Section 8 experiment needs.
"""

from __future__ import annotations

import numpy as np

from repro.deep.factorization_machine import FactorizationMachineClassifier
from repro.models.base import Classifier, softmax
from repro.models.nn import DenseStack


class DeepFMClassifier(FactorizationMachineClassifier):
    """DeepFM: joint training of an FM branch and a dense ReLU branch.

    The FM branch is the inherited :class:`FactorizationMachineClassifier`:
    its parameters, scores and gradients; this class adds the deep branch.

    Parameters
    ----------
    n_factors:
        Rank of the FM pairwise-interaction factors.
    hidden_layer_sizes:
        Widths of the deep branch's hidden layers.
    learning_rate:
        Adam step size shared by both branches.
    max_iter:
        Number of training epochs.
    batch_size:
        Mini-batch size; clipped to the number of training samples.
    alpha:
        L2 penalty on the FM linear weights and factor matrices.
    init_scale:
        Standard deviation of the FM factor initialisation.
    random_state:
        Seed controlling initialisation and batch shuffling.
    """

    name = "deepfm"

    def __init__(self, n_factors: int = 8, hidden_layer_sizes: tuple = (32, 16),
                 learning_rate: float = 2e-2, max_iter: int = 40,
                 batch_size: int = 128, alpha: float = 1e-4,
                 init_scale: float = 0.05, random_state: int | None = 0) -> None:
        Classifier.__init__(
            self,
            n_factors=int(n_factors),
            hidden_layer_sizes=tuple(hidden_layer_sizes),
            learning_rate=learning_rate,
            max_iter=int(max_iter),
            batch_size=int(batch_size),
            alpha=alpha,
            init_scale=init_scale,
            random_state=random_state,
        )

    # ------------------------------------------------------------- training
    def _init_parameters(self, n_features: int, n_classes: int,
                         rng: np.random.Generator) -> list[np.ndarray]:
        fm_parameters = super()._init_parameters(n_features, n_classes, rng)
        self.deep_ = DenseStack(
            [n_features, *self.hidden_layer_sizes, n_classes], rng
        )
        return [*fm_parameters, *self.deep_.parameters()]

    def _gradients(self, X: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
        fm_scores, interactions = self._scores(X, return_interactions=True)
        activations = self.deep_.forward(X)
        delta = (softmax(fm_scores + activations[-1]) - targets) / X.shape[0]
        # Both branches' outputs are summed, so both receive the same delta.
        return [*self._fm_gradients(X, delta, interactions),
                *self.deep_.backward(activations, delta)]

    # ------------------------------------------------------------ inference
    def _logits(self, X: np.ndarray) -> np.ndarray:
        return self._scores(X) + self.deep_.forward(X)[-1]
