"""ENAS: an LSTM controller trained with policy gradients.

ENAS views the pipeline space as one large super-graph and uses an LSTM
controller to decide, token by token, which preprocessor to place next and
when to stop extending the pipeline.  The controller is trained with
REINFORCE on the downstream validation accuracy; gradients flow through the
LSTM via backpropagation through time using the same
:class:`~repro.surrogates.lstm_regressor.LSTMCell` as the PNAS surrogate.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import TrialRecord
from repro.core.search_space import SearchSpace
from repro.models.base import softmax
from repro.search.base import SearchAlgorithm
from repro.surrogates.lstm_regressor import LSTMCell


class ENAS(SearchAlgorithm):
    """LSTM-controller pipeline search (Efficient NAS adapted to Auto-FP).

    The controller emits, at each step, a distribution over the candidate
    preprocessors plus a STOP token.  Sampling proceeds until STOP is drawn
    or the maximum pipeline length is reached; at least one preprocessor is
    always emitted.

    Parameters
    ----------
    hidden_size:
        Controller LSTM width.
    learning_rate:
        Policy-gradient step size.
    baseline_decay:
        Exponential-moving-average factor for the reward baseline.
    """

    name = "enas"
    category = "rl"
    area = "nas"
    surrogate_model = "LSTM"
    initialization = "None"
    samples_per_iteration = "=1"
    evaluations_per_iteration = "=1"

    def __init__(self, hidden_size: int = 16, learning_rate: float = 0.05,
                 baseline_decay: float = 0.8, random_state: int | None = 0) -> None:
        super().__init__(random_state=random_state)
        self.hidden_size = int(hidden_size)
        self.learning_rate = float(learning_rate)
        self.baseline_decay = float(baseline_decay)

    # ------------------------------------------------------------- lifecycle
    def _setup(self, problem, rng) -> None:
        space = problem.space
        self._n_candidates = space.n_candidates
        self._n_actions = space.n_candidates + 1      # + STOP
        self._input_dim = space.n_candidates + 1      # previous action or START
        self._cell = LSTMCell(self._input_dim, self.hidden_size, rng)
        scale = 1.0 / np.sqrt(self.hidden_size)
        self._W_out = rng.uniform(-scale, scale, size=(self.hidden_size, self._n_actions))
        self._b_out = np.zeros(self._n_actions)
        self._baseline = 0.0
        self._baseline_initialised = False
        self._episode = None

    def _token(self, previous_action: int | None) -> np.ndarray:
        """One-hot input token: START when ``previous_action`` is None."""
        token = np.zeros(self._input_dim)
        if previous_action is None:
            token[-1] = 1.0
        else:
            token[previous_action] = 1.0
        return token

    # ------------------------------------------------------------- sampling
    def _propose(self, space: SearchSpace, rng: np.random.Generator, trials):
        h = np.zeros(self.hidden_size)
        c = np.zeros(self.hidden_size)
        previous = None
        actions: list[int] = []
        steps = []  # (input_token, cache, hidden_state, probs, action)

        for position in range(space.max_length):
            token = self._token(previous)
            h, c, cache = self._cell.forward(token, h, c)
            logits = h @ self._W_out + self._b_out
            if position == 0:
                # Force at least one preprocessor by masking STOP at step 0.
                logits = logits.copy()
                logits[-1] = -1e9
            probs = softmax(logits)
            action = int(rng.choice(self._n_actions, p=probs))
            steps.append((token, cache, h.copy(), probs, action))
            if action == self._n_candidates:  # STOP
                break
            actions.append(action)
            previous = action

        self._episode = steps
        return [space.pipeline_from_indices(actions)]

    # --------------------------------------------------------------- update
    def _observe(self, record: TrialRecord) -> None:
        if self._episode is None:
            return
        reward = record.accuracy
        if not self._baseline_initialised:
            self._baseline = reward
            self._baseline_initialised = True
        advantage = reward - self._baseline
        self._baseline = (
            self.baseline_decay * self._baseline + (1 - self.baseline_decay) * reward
        )

        dW_out = np.zeros_like(self._W_out)
        db_out = np.zeros_like(self._b_out)
        dW_cell = np.zeros_like(self._cell.W)
        db_cell = np.zeros_like(self._cell.b)

        dh_next = np.zeros(self.hidden_size)
        dc_next = np.zeros(self.hidden_size)
        # Backward through time over the sampled episode.
        for token, cache, hidden, probs, action in reversed(self._episode):
            # Policy-gradient loss: -advantage * log pi(action); its gradient
            # w.r.t. the logits is advantage * (probs - onehot(action)) with a
            # sign that *descends* the loss, i.e. ascends the reward.
            dlogits = probs.copy()
            dlogits[action] -= 1.0
            dlogits *= advantage
            dW_out += np.outer(hidden, dlogits)
            db_out += dlogits
            dh = self._W_out @ dlogits + dh_next
            _, dh_next, dc_next, dW_step, db_step = self._cell.backward(dh, dc_next, cache)
            dW_cell += dW_step
            db_cell += db_step

        clip = lambda g: np.clip(g, -5.0, 5.0)
        self._W_out -= self.learning_rate * clip(dW_out)
        self._b_out -= self.learning_rate * clip(db_out)
        self._cell.W -= self.learning_rate * clip(dW_cell)
        self._cell.b -= self.learning_rate * clip(db_cell)
        self._episode = None
