"""LSTM regression surrogate (Progressive NAS "LSTM" variants, ENAS controller core).

A single-layer LSTM consumes the pipeline as a sequence of one-hot
preprocessor tokens and regresses the final hidden state onto the observed
validation accuracy.  Training uses truncated-free full backpropagation
through time with Adam — feasible because Auto-FP pipelines are at most a
handful of steps long.
"""

from __future__ import annotations

import numpy as np

from repro.models.nn import train_adam
from repro.surrogates.base import SurrogateRegressor
from repro.utils.random import check_random_state


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class LSTMCell:
    """Minimal LSTM cell with combined gate weights.

    The gate order in the stacked weight matrices is (input, forget, cell,
    output).  Exposed separately so both the LSTM regression surrogate and
    the ENAS controller can reuse it.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.input_size = input_size
        self.hidden_size = hidden_size
        scale = 1.0 / np.sqrt(hidden_size)
        self.W = rng.uniform(-scale, scale, size=(input_size + hidden_size, 4 * hidden_size))
        self.b = np.zeros(4 * hidden_size)
        # Forget-gate bias initialised to 1 (standard trick for stable training).
        self.b[hidden_size:2 * hidden_size] = 1.0

    def parameters(self):
        return [self.W, self.b]

    def forward(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        """One step. Returns ``(h_new, c_new, cache)`` where cache feeds backward."""
        concat = np.concatenate([x, h])
        gates = concat @ self.W + self.b
        H = self.hidden_size
        i = _sigmoid(gates[:H])
        f = _sigmoid(gates[H:2 * H])
        g = np.tanh(gates[2 * H:3 * H])
        o = _sigmoid(gates[3 * H:])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        cache = (concat, i, f, g, o, c, c_new)
        return h_new, c_new, cache

    def backward(self, dh: np.ndarray, dc: np.ndarray, cache):
        """Backprop one step.  Returns ``(dx, dh_prev, dc_prev, dW, db)``."""
        concat, i, f, g, o, c_prev, c_new = cache
        H = self.hidden_size
        tanh_c = np.tanh(c_new)
        do = dh * tanh_c
        dc_total = dc + dh * o * (1.0 - tanh_c ** 2)
        di = dc_total * g
        df = dc_total * c_prev
        dg = dc_total * i
        dc_prev = dc_total * f

        d_gates = np.empty(4 * H)
        d_gates[:H] = di * i * (1.0 - i)
        d_gates[H:2 * H] = df * f * (1.0 - f)
        d_gates[2 * H:3 * H] = dg * (1.0 - g ** 2)
        d_gates[3 * H:] = do * o * (1.0 - o)

        dW = np.outer(concat, d_gates)
        db = d_gates
        d_concat = self.W @ d_gates
        dx = d_concat[: self.input_size]
        dh_prev = d_concat[self.input_size:]
        return dx, dh_prev, dc_prev, dW, db


class LSTMRegressor(SurrogateRegressor):
    """Sequence-to-scalar LSTM surrogate.

    ``fit`` expects the inputs as *sequences of token indices* produced by
    :meth:`set_vocabulary` / :meth:`encode_sequences`, but for drop-in
    compatibility with the other surrogates it also accepts the flat one-hot
    encoding of the search space and reshapes it back into a sequence.

    Parameters
    ----------
    hidden_size:
        LSTM hidden width.
    epochs:
        Training epochs over the trial set.
    learning_rate:
        Adam step size.
    random_state:
        Seed for initialisation and shuffling.
    """

    def __init__(self, hidden_size: int = 16, epochs: int = 40,
                 learning_rate: float = 2e-2, random_state: int = 0) -> None:
        self.hidden_size = int(hidden_size)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.random_state = random_state
        self._block_size: int | None = None

    def set_encoding_block(self, block_size: int) -> None:
        """Tell the surrogate the per-position block width of the flat encoding."""
        self._block_size = int(block_size)

    # ------------------------------------------------------------- training
    def fit(self, X: np.ndarray, y: np.ndarray) -> "LSTMRegressor":
        sequences = self._to_sequences(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        rng = check_random_state(self.random_state)
        token_dim = sequences[0].shape[1]

        self.cell_ = LSTMCell(token_dim, self.hidden_size, rng)
        scale = 1.0 / np.sqrt(self.hidden_size)
        self.W_out_ = rng.uniform(-scale, scale, size=(self.hidden_size, 1))
        self.b_out_ = np.zeros(1)

        def gradients(batch: np.ndarray) -> list[np.ndarray]:
            (index,) = batch
            prediction, caches, final_h = self._forward_one(sequences[index])
            grad_pred = prediction - y[index]

            dW_out = np.outer(final_h, grad_pred)
            db_out = np.array([grad_pred])
            dh = (self.W_out_ @ np.array([grad_pred])).ravel()
            dc = np.zeros(self.hidden_size)
            dW_cell = np.zeros_like(self.cell_.W)
            db_cell = np.zeros_like(self.cell_.b)
            for cache in reversed(caches):
                _, dh, dc, dW_step, db_step = self.cell_.backward(dh, dc, cache)
                dW_cell += dW_step
                db_cell += db_step
            return [np.clip(grad, -5.0, 5.0)
                    for grad in (dW_cell, db_cell, dW_out, db_out)]

        # One Adam step per sequence, on gradients clipped to [-5, 5].
        train_adam([*self.cell_.parameters(), self.W_out_, self.b_out_], gradients,
                   n_samples=len(sequences), batch_size=1, epochs=self.epochs,
                   learning_rate=self.learning_rate, rng=rng)
        return self

    def _forward_one(self, sequence: np.ndarray):
        h = np.zeros(self.hidden_size)
        c = np.zeros(self.hidden_size)
        caches = []
        for token in sequence:
            h, c, cache = self.cell_.forward(token, h, c)
            caches.append(cache)
        prediction = float((h @ self.W_out_ + self.b_out_)[0])
        return prediction, caches, h

    # ------------------------------------------------------------ inference
    def predict(self, X: np.ndarray) -> np.ndarray:
        sequences = self._to_sequences(np.asarray(X, dtype=np.float64))
        return np.asarray([self._forward_one(seq)[0] for seq in sequences])

    # ------------------------------------------------------------ internals
    def _to_sequences(self, X: np.ndarray) -> list[np.ndarray]:
        """Reshape the flat per-position one-hot encoding into token sequences."""
        if X.ndim != 2:
            raise ValueError("LSTMRegressor expects a 2-D encoded design matrix")
        block = self._block_size or self._infer_block(X.shape[1])
        n_positions = X.shape[1] // block
        sequences = []
        for row in X:
            tokens = row.reshape(n_positions, block)
            # Drop trailing "empty" positions so sequence length equals pipeline length.
            lengths = [i + 1 for i in range(n_positions) if tokens[i, :-1].any()]
            length = max(lengths) if lengths else 1
            sequences.append(tokens[:length])
        return sequences

    @staticmethod
    def _infer_block(width: int) -> int:
        """Guess the per-position block size (candidates + empty marker)."""
        for block in range(2, width + 1):
            if width % block == 0:
                return block
        return width
