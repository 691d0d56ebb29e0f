"""Client objectives: quadratic point clouds, logistic models, and a small MLP.

One objective holds N clients of n samples apiece, stacked as one (N, n, c)
input array (logistic and mlp add a constant-1 bias column, c = d + 1) and
one (N, n) label array.  Each kind computes loss and gradient in one batched
kernel over S parameter rows.  batch_grad(W, idx) takes W (S, dim) and idx
(S, b), flat sample indices in client-major order (client i's sample j is
i * n + j); 1-D w and indices are the one-row case.  Rows never interact, so
a row's gradient is bit-identical whichever rows share the call, in any
order.  losses_and_grads(w) is the fused population pass: every client's
full loss and gradient at one w.  loss(w) and grad(w) average it over the
clients, so for one client they are its own.  All randomness stays with the
caller, which passes explicit sample indices; the full gradient is the batch
gradient over all of a client's indices, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

ParamVector = np.ndarray  # 1-D float64, fixed length per objective


@dataclass
class ClientDataset:
    """Feature matrix plus integer labels for one client (or a global pool)."""

    features: np.ndarray
    labels: np.ndarray
    client_id: int = -1

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ConfigError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} samples"
            )
        if self.features.shape[0] == 0:
            raise ConfigError("dataset is empty")
        if not np.all(np.isfinite(self.features)):
            raise ConfigError("features contain non-finite values")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _check_params(w: np.ndarray, dim: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (dim,):
        raise ConfigError(f"parameter vector has shape {w.shape}, expected ({dim},)")
    return w


def _augment(features: np.ndarray) -> np.ndarray:
    """Append a constant-1 column so the bias rides inside the weight vector."""
    return np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)


def _cross_entropy(logits: np.ndarray, y: np.ndarray, with_loss: bool):
    """Mean cross-entropy per row (when asked) and softmax(logits) - onehot(y).

    logits has shape (S, b, C) and is overwritten.
    """
    losses = None
    if with_loss:
        picked = np.take_along_axis(logits, y[..., None], axis=2)[..., 0]
        losses = np.mean(np.logaddexp.reduce(logits, axis=2) - picked, axis=1)
    logits -= logits.max(axis=2, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=2, keepdims=True)
    p -= y[..., None] == np.arange(p.shape[2])
    return losses, p


class Objective:
    """A stacked client population; subclasses supply the batched kernel."""

    kind: str = ""
    bias_column: bool = True

    def __init__(self, dataset: ClientDataset | Sequence[ClientDataset]):
        self.datasets = [dataset] if isinstance(dataset, ClientDataset) else list(dataset)
        if not self.datasets:
            raise ConfigError("no client datasets given")
        shapes = {d.features.shape for d in self.datasets}
        if len(shapes) != 1:
            raise ConfigError(f"clients must hold equal-size datasets, got {sorted(shapes)}")
        self.features = np.stack([d.features for d in self.datasets])
        self.labels = np.stack([d.labels for d in self.datasets])
        self.num_clients, self.n = self.labels.shape  # n: samples per client
        self._x = _augment(self.features) if self.bias_column else self.features
        self._flat_x = self._x.reshape(-1, self._x.shape[2])
        self._flat_y = self.labels.reshape(-1)

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def smoothness(self) -> float:
        """Upper bound L on every client's gradient Lipschitz constant."""
        raise NotImplementedError

    @property
    def params(self) -> dict:
        """Constructor keywords besides the datasets."""
        raise NotImplementedError

    def _evaluate(self, W: np.ndarray, x: np.ndarray, y: np.ndarray, with_loss: bool):
        """(losses or None, gradients) of rows W over inputs x (S, b, c), labels y (S, b).

        W may have one row for all of x.  Losses include the ridge term and
        are asked for only then, by the population pass.
        """
        raise NotImplementedError

    def _penalty(self, W: np.ndarray) -> float:
        return 0.5 * self.reg * np.dot(W[0], W[0])

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

    def losses_and_grads(self, w: ParamVector) -> tuple[np.ndarray, np.ndarray]:
        """Every client's full loss (N,) and full gradient (N, dim) at w, in one pass."""
        w = _check_params(w, self.dim)
        return self._evaluate(w[None], self._x, self.labels, True)

    def client_grads(self, w: ParamVector) -> np.ndarray:
        """Every client's full gradient (N, dim) at w."""
        w = _check_params(w, self.dim)
        return self._evaluate(w[None], self._x, self.labels, False)[1]

    def loss(self, w: ParamVector) -> float:
        """Uniform average of the client losses."""
        return float(np.mean(self.losses_and_grads(w)[0]))

    def grad(self, w: ParamVector) -> ParamVector:
        """Uniform average of the client full gradients."""
        return np.mean(self.client_grads(w), axis=0)

    def grad_variance(self, batch_size: int) -> float | None:
        """Analytic E||batch grad - full grad||^2 where known, else None."""
        return None

    def predict(self, w: ParamVector, features: np.ndarray) -> np.ndarray | None:
        """Hard labels for classification objectives, None for regression."""
        return None


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

    @property
    def smoothness(self) -> float:
        return 1.0

    @property
    def params(self) -> dict:
        return {}

    @property
    def optimum(self) -> ParamVector:
        """Minimizer of the clients' average: the mean of their means."""
        return np.mean(self.means, axis=0)

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


class LogisticObjective(Objective):
    """L2-regularized logistic regression with the bias folded into w.

    Two classes use a single sigmoid head on w in R^{d+1}; more classes use a
    softmax head on a (C x (d+1)) weight matrix stored flattened.  Smoothness:
    the sigmoid Hessian is bounded by max_j ||x_j||^2 / 4 plus the ridge
    weight; the softmax logit Hessian has spectral norm at most 1/2, so the
    multiclass bound uses /2 instead of /4.
    """

    kind = "logistic"

    def __init__(
        self,
        dataset: ClientDataset | Sequence[ClientDataset],
        num_classes: int = 2,
        reg: float = 0.0,
    ):
        super().__init__(dataset)
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        if reg < 0:
            raise ConfigError(f"reg must be >= 0, got {reg}")
        if self.labels.min() < 0 or self.labels.max() >= num_classes:
            raise ConfigError("labels out of range for num_classes")
        self.num_classes = int(num_classes)
        self.reg = float(reg)
        self._max_row_norm2 = float(np.max(np.sum(self._x * self._x, axis=2)))

    @property
    def dim(self) -> int:
        cols = self._x.shape[2]
        return cols if self.num_classes == 2 else self.num_classes * cols

    @property
    def smoothness(self) -> float:
        curvature = 0.25 if self.num_classes == 2 else 0.5
        return curvature * self._max_row_norm2 + self.reg

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
                data = -np.mean(y * _log_sigmoid(z) + (1 - y) * _log_sigmoid(-z), axis=1)
                losses = data + self._penalty(W)
            p = 1.0 / (1.0 + np.exp(-z))
            residual = (p - y)[..., None]
            return losses, np.matmul(x.transpose(0, 2, 1), residual)[..., 0] / b + self.reg * W
        losses, p = _cross_entropy(z, y, with_loss)
        if with_loss:
            losses = losses + self._penalty(W)
        mats = W.reshape(len(W), self.num_classes, -1)
        grads = np.matmul(p.transpose(0, 2, 1), x) / b + self.reg * mats
        return losses, grads.reshape(len(grads), -1)

    def predict(self, w: ParamVector, features: np.ndarray) -> np.ndarray:
        w = _check_params(w, self.dim)
        x = _augment(np.asarray(features, dtype=np.float64))
        z = self._logits(w[None], x[None])[0]
        if self.num_classes == 2:
            return (z >= 0.0).astype(np.int64)
        return np.argmax(z, axis=1).astype(np.int64)


class MlpObjective(Objective):
    """One-hidden-layer tanh network with a softmax head, trained by backprop.

    Deliberately tiny (at most 1000 parameters): it exists to exercise the
    simulator on a nonconvex loss, not to chase accuracy.  The smoothness
    value is an empirical probe, not a certified bound.
    """

    kind = "mlp"

    MAX_PARAMS = 1000

    def __init__(
        self,
        dataset: ClientDataset | Sequence[ClientDataset],
        num_classes: int = 2,
        hidden: int = 16,
        reg: float = 0.0,
        smoothness: float | None = None,
    ):
        super().__init__(dataset)
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        if hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {hidden}")
        if reg < 0:
            raise ConfigError(f"reg must be >= 0, got {reg}")
        if self.labels.min() < 0 or self.labels.max() >= num_classes:
            raise ConfigError("labels out of range for num_classes")
        self.num_classes = int(num_classes)
        self.hidden = int(hidden)
        self.reg = float(reg)
        self._n1 = self.hidden * self._x.shape[2]
        total = self._n1 + self.num_classes * (self.hidden + 1)
        if total > self.MAX_PARAMS:
            raise ConfigError(
                f"mlp would have {total} parameters, limit is {self.MAX_PARAMS}"
            )
        self._total = total
        self._smoothness = smoothness

    @property
    def dim(self) -> int:
        return self._total

    @property
    def smoothness(self) -> float:
        if self._smoothness is None:
            self._smoothness = self._probe_smoothness()
        return self._smoothness

    @property
    def params(self) -> dict:
        return {"num_classes": self.num_classes, "hidden": self.hidden, "reg": self.reg}

    def _probe_smoothness(self) -> float:
        # Per client, the max gradient-difference ratio over fixed random
        # pairs, padded by 2x; the largest over the clients.  Good enough for
        # step-size warnings; never used in convergence math.
        rng = np.random.Generator(np.random.Philox(0x5E0071))
        best = np.zeros(self.num_clients)
        for _ in range(64):
            w1 = rng.normal(scale=1.0, size=self.dim)
            w2 = w1 + rng.normal(scale=0.1, size=self.dim)
            diff = self.client_grads(w1) - self.client_grads(w2)
            den = np.linalg.norm(w1 - w2)
            if den > 0:
                num = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
                best = np.maximum(best, num / den)
        # The floor stays the float 1.0 unless a ratio exceeds it, which
        # keeps the audit lines of summary.txt printed as before.
        return 2.0 * max(1.0, best.max())

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
        if with_loss:
            losses = losses + self._penalty(W)
        p /= x.shape[1]
        g2 = np.matmul(p.transpose(0, 2, 1), act1)
        back = np.matmul(p, w2[:, :, : self.hidden]) * (1.0 - act * act)
        g1 = np.matmul(back.transpose(0, 2, 1), x)
        grads = np.concatenate([g1.reshape(len(g1), -1), g2.reshape(len(g2), -1)], axis=1)
        return losses, grads + self.reg * W

    def predict(self, w: ParamVector, features: np.ndarray) -> np.ndarray:
        w = _check_params(w, self.dim)
        x = _augment(np.asarray(features, dtype=np.float64))
        logits = self._forward(w[None], x[None])[3][0]
        return np.argmax(logits, axis=1).astype(np.int64)


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
    return type(first)([d for o in objectives for d in o.datasets], **first.params)


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


def estimate_grad_variance(
    objective: Objective,
    w: ParamVector,
    batch_size: int,
    draws: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo E||batch grad - full grad||^2 with its standard error."""
    full = objective.grad(w)
    n = objective.n
    b = min(int(batch_size), n)
    samples = np.empty(draws)
    for r in range(draws):
        idx = rng.choice(n, size=b, replace=False)
        diff = objective.batch_grad(w, idx) - full
        samples[r] = np.dot(diff, diff)
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(draws))
