"""Client objectives: quadratic point clouds, logistic models, and a small MLP.

One objective holds N clients of n samples apiece, stacked as one (N, n, c)
input array (logistic and mlp add a constant-1 bias column, c = d + 1) and
one (N, n) label array.  Each kind computes loss and gradient in one batched
kernel over S parameter rows.  batch_grad(W, idx) takes W (S, dim) and idx
(S, b), flat sample indices in client-major order (client i's sample j is
i * n + j); 1-D w and indices are the one-row case.  Rows never interact, so
a row's gradient is bit-identical whichever rows share the call, in any
order.  losses_and_grads(w) is the fused population pass: every client's
full loss and gradient at one w, or with one w per equal run of clients
(each seed's clients in a stack), and smoothness(runs) gives the L of each
such run.  loss(w) and grad(w) both read that one pass and average it over
the clients, so for one client they are its own.  All randomness stays with
the caller, which passes explicit sample indices; the full gradient is the
batch gradient over all of a client's indices, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

ParamVector = np.ndarray  # 1-D float64, fixed length per objective


@dataclass
class ClientDataset:
    """Features (n, d) and labels (n,) of a pool, or (N, n, d) and (N, n) of N clients."""

    features: np.ndarray
    labels: np.ndarray
    client_id: int = -1

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim not in (2, 3):
            raise ConfigError(f"features must be (n, d) or (N, n, d), got {self.features.shape}")
        if self.labels.shape != self.features.shape[:-1]:
            raise ConfigError(f"labels {self.labels.shape} do not match {self.features.shape}")
        if self.labels.size == 0:
            raise ConfigError("dataset is empty")
        if not np.all(np.isfinite(self.features)):
            raise ConfigError("features contain non-finite values")

    @property
    def n(self) -> int:
        return self.features.shape[-2]


def _stacked(parts: Sequence) -> ClientDataset:
    """One (N, n, d) dataset of every client of `parts`, datasets or objectives, in order."""
    shapes = {p.features.shape[-2:] for p in parts}
    if len(shapes) != 1:
        raise ConfigError(f"clients must hold equal-size datasets, got {sorted(shapes)}")
    ((n, d),) = shapes
    return ClientDataset(np.concatenate([p.features.reshape(-1, n, d) for p in parts]),
                         np.concatenate([p.labels.reshape(-1, n) for p in parts]))


def _augment(features: np.ndarray) -> np.ndarray:
    """Append a constant-1 column so the bias rides inside the weight vector."""
    return np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)


def _fold(ufunc: np.ufunc, logits: np.ndarray) -> np.ndarray:
    """ufunc folded over the class axis of (S, b, C) logits, class by class from the left.

    C - 1 elementwise calls cost far less than numpy's reduction over a short
    inner axis, and give its bits, except that numpy may give a zero maximum
    the other sign, which the softmax cannot see: exp(x - 0.0) == exp(x + 0.0).
    """
    out = logits[..., 0]
    for k in range(1, logits.shape[2]):
        out = ufunc(out, logits[..., k])
    return out


def _cross_entropy(logits: np.ndarray, y: np.ndarray, with_loss: bool):
    """Mean cross-entropy per row (when asked) and softmax(logits) - onehot(y).

    logits has shape (S, b, C) and is overwritten.
    """
    losses = None
    if with_loss:
        picked = np.take_along_axis(logits, y[..., None], axis=2)[..., 0]
        losses = np.mean(_fold(np.logaddexp, logits) - picked, axis=1)
    logits -= _fold(np.maximum, logits)[..., None]
    p = np.exp(logits)
    p /= p.sum(axis=2, keepdims=True)
    p -= y[..., None] == np.arange(p.shape[2])
    return losses, p


class Objective:
    """A stacked client population; subclasses supply the batched kernel."""

    kind: str = ""
    bias_column: bool = True

    def __init__(self, dataset: ClientDataset | Sequence[ClientDataset]):
        dataset = dataset if isinstance(dataset, ClientDataset) else _stacked(dataset)
        self.features = dataset.features.reshape((-1,) + dataset.features.shape[-2:])
        self.labels = dataset.labels.reshape(self.features.shape[:-1])
        self.num_clients, self.n = self.labels.shape  # n: samples per client
        self._x = _augment(self.features) if self.bias_column else self.features
        self._flat_x = self._x.reshape(-1, self._x.shape[2])
        self._flat_y = self.labels.reshape(-1)

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def smoothness(self, runs: int = 1) -> list[float]:
        """Upper bound L on every client's gradient Lipschitz constant, one per run.

        The clients form `runs` equal runs, such as each seed's in a stack,
        and a run's L reads only its own clients.
        """
        raise NotImplementedError

    @property
    def params(self) -> dict:
        """Constructor keywords besides the dataset."""
        raise NotImplementedError

    def _evaluate(self, W: np.ndarray, x: np.ndarray, y: np.ndarray, with_loss: bool):
        """(losses or None, gradients) of rows W over inputs x (S, b, c), labels y (S, b).

        W may have one row for all of x.  Losses leave out the ridge term and
        are asked for only by the population pass.
        """
        raise NotImplementedError

    def _penalties(self, W: np.ndarray) -> np.ndarray | None:
        """Ridge term of each row of W (S, dim); None when the objective has none."""
        return None

    def batch_grad(self, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Gradients of rows w (S, dim) on batches indices (S, b); 1-D is one row."""
        w = np.asarray(w, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.int64)
        one = w.ndim == 1
        W, idx = (w[None], indices[None]) if one else (w, indices)
        if W.ndim != 2 or W.shape[1] != self.dim or idx.ndim != 2 or len(idx) != len(W):
            raise ConfigError(
                f"batch_grad takes (S, {self.dim}) rows and (S, b) indices, "
                f"got {w.shape} and {indices.shape}"
            )
        g = self._evaluate(W, self._flat_x[idx], self._flat_y[idx], False)[1]
        return g[0] if one else g

    def losses_and_grads(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every client's full loss (N,) and full gradient (N, dim), in one pass.

        w is one model (dim,) for every client, or S models (S, dim), model s
        for the s-th of S equal runs of clients, such as seed s's clients in
        a stack.
        """
        W = np.asarray(w, dtype=np.float64)
        W = W[None] if W.ndim == 1 else W
        if W.ndim != 2 or W.shape[1] != self.dim or self.num_clients % len(W):
            raise ConfigError(f"losses_and_grads takes ({self.dim},) or (S, {self.dim}) models, "
                              f"S dividing {self.num_clients} clients, got {np.shape(w)}")
        block = self.num_clients // len(W)
        losses, grads = self._evaluate(np.repeat(W, block, axis=0), self._x, self.labels, True)
        penalties = self._penalties(W)
        if penalties is not None:
            losses += np.repeat(penalties, block)
        return losses, grads

    def loss(self, w: ParamVector) -> float:
        """Uniform average of the client losses."""
        return float(np.mean(self.losses_and_grads(w)[0]))

    def grad(self, w: ParamVector) -> ParamVector:
        """Uniform average of the client full gradients."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.dim,):
            raise ConfigError(f"parameter vector has shape {w.shape}, expected ({self.dim},)")
        return np.mean(self.losses_and_grads(w)[1], axis=0)

    def grad_variance(self, batch_size: int) -> float | None:
        """Analytic E||batch grad - full grad||^2 where known, else None."""
        return None

    def predict(self, W: np.ndarray) -> np.ndarray:
        """Hard labels (N, n) of models W (N, dim), model i on client i's samples."""
        raise NotImplementedError


class QuadraticObjective(Objective):
    """f_i(w) = (1/n) sum_j 0.5 ||w - x_ij||^2, the mean squared pull to each point.

    The gradient is w minus the batch mean, client i's optimum is its mean,
    and the smoothness constant is exactly 1.
    """

    kind = "quadratic"
    bias_column = False

    def __init__(self, dataset: ClientDataset | Sequence[ClientDataset]):
        super().__init__(dataset)
        self.means = self.features.mean(axis=1)
        # Total variance of each client's points around their mean, summed
        # over coordinates; drives the exact batch-mean variance below.
        centered = self.features - self.means[:, None]
        self._spread = np.mean(np.sum(centered**2, axis=2), axis=1)

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    def smoothness(self, runs: int = 1) -> list[float]:
        return [1.0] * runs

    @property
    def params(self) -> dict:
        return {}

    def _evaluate(self, W, x, y, with_loss):
        losses = None
        if with_loss:
            diff = W[:, None, :] - x
            losses = 0.5 * np.mean(np.sum(diff * diff, axis=2), axis=1)
        return losses, W - x.mean(axis=1)

    def grad_variance(self, batch_size: int) -> float | None:
        # Sampling b of n points uniformly without replacement: the batch
        # mean has variance (spread/b) * (n-b)/(n-1), the finite-population
        # correction of the usual sigma^2/b law.  Largest over the clients.
        n = self.n
        b = int(batch_size)
        if b <= 0:
            raise ConfigError(f"batch_size must be positive, got {b}")
        if b >= n:
            return 0.0
        return float(self._spread.max()) * (n - b) / (b * (n - 1))


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


def check_classifier(num_classes: int, reg: float) -> None:
    """Reject a class count or ridge weight that no classifier takes."""
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    if reg < 0:
        raise ConfigError(f"reg must be >= 0, got {reg}")


class _Classifier(Objective):
    """Class count, ridge weight and hard labels; subclasses give _logits(W, x)."""

    def __init__(self, dataset, num_classes: int = 2, reg: float = 0.0):
        super().__init__(dataset)
        check_classifier(num_classes, reg)
        if self.labels.min() < 0 or self.labels.max() >= num_classes:
            raise ConfigError("labels out of range for num_classes")
        self.num_classes = int(num_classes)
        self.reg = float(reg)

    def _penalties(self, W: np.ndarray) -> np.ndarray:
        return np.array([0.5 * self.reg * np.dot(w, w) for w in W])

    def predict(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=np.float64)
        if W.shape != (self.num_clients, self.dim):
            raise ConfigError(f"predict takes ({self.num_clients}, {self.dim}) models, "
                              f"got {W.shape}")
        z = self._logits(W, self._x)
        if z.ndim == 2:  # one sigmoid head
            return (z >= 0.0).astype(np.int64)
        return np.argmax(z, axis=2).astype(np.int64)


class LogisticObjective(_Classifier):
    """L2-regularized logistic regression with the bias folded into w.

    Two classes use a single sigmoid head on w in R^{d+1}; more classes use a
    softmax head on a (C x (d+1)) weight matrix stored flattened.  Smoothness:
    the sigmoid Hessian is bounded by max_j ||x_j||^2 / 4 plus the ridge
    weight; the softmax logit Hessian has spectral norm at most 1/2, so the
    multiclass bound uses /2 instead of /4.
    """

    kind = "logistic"

    @property
    def dim(self) -> int:
        cols = self._x.shape[2]
        return cols if self.num_classes == 2 else self.num_classes * cols

    def smoothness(self, runs: int = 1) -> list[float]:
        curvature = 0.25 if self.num_classes == 2 else 0.5
        norms2 = np.sum(self._x * self._x, axis=2).reshape(runs, -1)
        return [curvature * float(m) + self.reg for m in norms2.max(axis=1)]

    @property
    def params(self) -> dict:
        return {"num_classes": self.num_classes, "reg": self.reg}

    def _logits(self, W: np.ndarray, x: np.ndarray) -> np.ndarray:
        if self.num_classes == 2:
            return np.matmul(x, W[:, :, None])[..., 0]
        return np.matmul(x, W.reshape(len(W), self.num_classes, -1).transpose(0, 2, 1))

    def _evaluate(self, W, x, y, with_loss):
        z = self._logits(W, x)
        b = x.shape[1]
        if self.num_classes == 2:
            losses = None
            if with_loss:
                losses = -np.mean(y * _log_sigmoid(z) + (1 - y) * _log_sigmoid(-z), axis=1)
            p = 1.0 / (1.0 + np.exp(-z))
            residual = (p - y)[..., None]
            return losses, np.matmul(x.transpose(0, 2, 1), residual)[..., 0] / b + self.reg * W
        losses, p = _cross_entropy(z, y, with_loss)
        mats = W.reshape(len(W), self.num_classes, -1)
        grads = np.matmul(p.transpose(0, 2, 1), x) / b + self.reg * mats
        return losses, grads.reshape(len(grads), -1)

class MlpObjective(_Classifier):
    """One-hidden-layer tanh network with a softmax head, trained by backprop.

    Deliberately tiny (at most 1000 parameters): it exists to exercise the
    simulator on a nonconvex loss, not to chase accuracy.  Each smoothness
    call runs an empirical probe (not a certified bound) over every client
    of the stack at once; nothing is cached.
    """

    kind = "mlp"

    MAX_PARAMS = 1000

    def __init__(self, dataset: ClientDataset | Sequence[ClientDataset], num_classes: int = 2,
                 hidden: int = 16, reg: float = 0.0):
        super().__init__(dataset, num_classes, reg)
        self._total = self.size(self.features.shape[2], num_classes, hidden)
        self.hidden = int(hidden)
        self._n1 = self.hidden * self._x.shape[2]

    @classmethod
    def size(cls, dim: int, num_classes: int, hidden: int) -> int:
        """Parameter count on dim input features; ConfigError when hidden < 1 or over MAX_PARAMS."""
        if hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {hidden}")
        total = hidden * (dim + 1) + num_classes * (hidden + 1)
        if total > cls.MAX_PARAMS:
            raise ConfigError(f"mlp would have {total} parameters, limit is {cls.MAX_PARAMS}")
        return total

    @property
    def dim(self) -> int:
        return self._total

    @property
    def params(self) -> dict:
        return {"num_classes": self.num_classes, "hidden": self.hidden, "reg": self.reg}

    def smoothness(self, runs: int = 1) -> list[float]:
        """The probed L of each run of clients.

        Per client, the max gradient-difference ratio over fixed random
        pairs, padded by 2x; the largest over the run's clients.  Every run
        sees the same pairs, so a run's L does not depend on what it is
        stacked with.  Good enough for step-size warnings; never used in
        convergence math.
        """
        rng = np.random.Generator(np.random.Philox(0x5E0071))
        best = np.zeros(self.num_clients)
        for _ in range(64):
            w1 = rng.normal(scale=1.0, size=self.dim)
            w2 = w1 + rng.normal(scale=0.1, size=self.dim)
            g1, g2 = (self._evaluate(v[None], self._x, self.labels, False)[1] for v in (w1, w2))
            diff = g1 - g2
            den = np.linalg.norm(w1 - w2)
            if den > 0:
                num = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
                best = np.maximum(best, num / den)
        # The floor stays the float 1.0 unless a ratio exceeds it, which
        # keeps the audit lines of summary.txt printed as before.
        return [2.0 * max(1.0, run.max()) for run in best.reshape(runs, -1)]

    def _forward(self, W: np.ndarray, x: np.ndarray):
        rows = len(W)
        w1 = W[:, : self._n1].reshape(rows, self.hidden, x.shape[2])
        w2 = W[:, self._n1 :].reshape(rows, self.num_classes, self.hidden + 1)
        act = np.tanh(np.matmul(x, w1.transpose(0, 2, 1)))
        act1 = np.concatenate([act, np.ones(act.shape[:2] + (1,))], axis=2)
        return w2, act, act1, np.matmul(act1, w2.transpose(0, 2, 1))

    def _evaluate(self, W, x, y, with_loss):
        w2, act, act1, logits = self._forward(W, x)
        losses, p = _cross_entropy(logits, y, with_loss)
        p /= x.shape[1]
        back = np.matmul(p, w2[:, :, : self.hidden])
        back *= 1.0 - act * act
        grads = np.concatenate([np.matmul(back.transpose(0, 2, 1), x).reshape(len(p), -1),
                                np.matmul(p.transpose(0, 2, 1), act1).reshape(len(p), -1)], axis=1)
        grads += self.reg * W
        return losses, grads

    def _logits(self, W: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._forward(W, x)[3]


def make_objective(
    kind: str, dataset: ClientDataset | Sequence[ClientDataset], **params
) -> Objective:
    """Build the objective of one client or a stack of them; unknown kinds raise ConfigError."""
    if kind == "quadratic":
        if params:
            raise ConfigError(f"quadratic takes no extra parameters, got {params}")
        return QuadraticObjective(dataset)
    if kind == "logistic":
        return LogisticObjective(dataset, **params)
    if kind == "mlp":
        return MlpObjective(dataset, **params)
    raise ConfigError(f"unknown objective kind {kind!r}")


def stack(objectives: Objective | Sequence[Objective]) -> Objective:
    """One objective over every client of `objectives`, in order.

    An Objective passes through.  A sequence must share one kind and one set
    of parameters, and its clients one dataset shape.
    """
    if isinstance(objectives, Objective):
        return objectives
    if not objectives:
        raise ConfigError("no objectives given")
    first = objectives[0]
    if len(objectives) == 1:
        return first
    if any(type(o) is not type(first) or o.params != first.params for o in objectives):
        raise ConfigError("stacked objectives must share one kind and one set of parameters")
    return type(first)(_stacked(objectives), **first.params)


def global_optimum(objectives: Objective | Sequence[Objective]) -> ParamVector | None:
    """Exact minimizer of the uniform average of quadratic client objectives.

    The average objective's gradient is w minus the mean of the client means,
    so that mean is the optimum regardless of per-client dataset sizes.
    Returns None when any objective is not quadratic.
    """
    objectives = [objectives] if isinstance(objectives, Objective) else list(objectives)
    if not objectives:
        raise ConfigError("no objectives given")
    if not all(isinstance(o, QuadraticObjective) for o in objectives):
        return None
    dims = {o.dim for o in objectives}
    if len(dims) != 1:
        raise ConfigError(f"objectives disagree on dimension: {sorted(dims)}")
    return np.mean(np.concatenate([o.means for o in objectives]), axis=0)
