"""Independent PPO learners over (previous effort, previous reward, signal).

Each agent owns a two-hidden-layer tanh MLP (64 units each) with a
sigmoid-squashed action-mean head, a state-independent log-std, and a value
head sharing the trunk. Actions are Gaussian samples clipped to the effort
range; log-probabilities are taken on the unclipped sample. Training is the
clipped-surrogate PPO objective with a capped squared value loss, batch
advantage normalization, Adam, and a KL-based early stop of the epoch loop.

Everything is plain float64 NumPy with hand-written backpropagation, so
gradients can be validated against central finite differences and runs are
bit-reproducible from the seeds alone.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))

CHECKPOINT_MAGIC = b"FCKP"
# Version 2 adds the effort range (float64) after the layer sizes; version 1
# files still load, at the effort range the caller gives.
CHECKPOINT_VERSION = 2


class UpdateDivergedError(RuntimeError):
    """Raised when a PPO update produces non-finite gradients."""


@dataclass
class PpoHyper:
    """PPO hyperparameters. The first eight match the training defaults the
    experiments inherit; the last three are the update cadence knobs."""

    learning_rate: float = 1e-4
    clip: float = 0.3
    vf_clip: float = 10.0
    kl_target: float = 0.01
    gamma: float = 0.99
    gae_lambda: float = 1.0
    vf_coeff: float = 1.0
    entropy_coeff: float = 0.0
    epochs_per_update: int = 30
    minibatch_size: int = 128
    steps_per_update: int = 4000

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("epochs_per_update", "minibatch_size", "steps_per_update"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


# Settings of the desk-scale experiments: the acceptance learning-trend check
# trains with these, and configs/desk_grid.cfg spells them out as CLI keys
# (tests/test_cli.py keeps the two equal).
DESK_HYPER = PpoHyper(
    learning_rate=1e-3,
    steps_per_update=400,
    epochs_per_update=20,
    minibatch_size=128,
    kl_target=0.05,
)


@functools.cache
def _layout(layer_sizes: tuple[int, int, int]) -> tuple[tuple, int]:
    """(name, slice, shape) of each field in the flat parameter vector, in
    serialization order, and the vector's length. Cached per layer sizes."""
    d, h1, h2 = layer_sizes
    shapes = {
        "w1": (h1, d), "b1": (h1,), "w2": (h2, h1), "b2": (h2,),
        "w_mean": (h2,), "b_mean": (), "w_value": (h2,), "b_value": (), "log_std": (),
    }
    fields, start = [], 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        fields.append((name, slice(start, stop), shape))
        start = stop
    return tuple(fields), start


class PolicyParams:
    """MLP weights held in one flat float64 vector, ``flat``. Layer sizes are
    (obs_dim, h1, h2). Each named field is a view into ``flat`` (the scalars
    ``b_mean``, ``b_value`` and ``log_std`` are 0-d views), and assigning a
    field writes into ``flat``. ``from_flat`` is the only constructor: a new
    set of parameters (or of gradients) is a buffer of the ``_layout`` size
    wrapped by it.

    A stacked policy binds an (N, P) buffer instead, one agent's vector per
    row. Every field then has a leading agent axis: ``w1`` is (N, h1, obs_dim)
    and ``log_std`` is (N,). ``stack_params`` marks each agent's row view
    with ``stacked_row = (policy, n)``; any other ``PolicyParams`` holds
    ``(None, None)``."""

    def __setattr__(self, name, value):
        getattr(self, name)[...] = value

    @classmethod
    def from_flat(cls, flat: np.ndarray, layer_sizes: tuple[int, int, int]) -> "PolicyParams":
        """Wrap ``flat``, a (P,) vector or a stacked (N, P) buffer, without
        copying it (a contiguous float64 array is used as is, so the fields
        write through to it)."""
        flat = np.ascontiguousarray(flat, dtype=float)
        layer_sizes = tuple(layer_sizes)
        fields, size = _layout(layer_sizes)
        if flat.ndim not in (1, 2) or flat.shape[-1] != size:
            raise ValueError(
                f"flat buffer of shape {flat.shape} does not match layers {layer_sizes}"
            )
        lead = flat.shape[:-1]
        views = {name: flat[..., sl].reshape(lead + shape) for name, sl, shape in fields}
        params = cls.__new__(cls)
        params.__dict__.update(
            views, flat=flat, layer_sizes=layer_sizes, stacked_row=(None, None)
        )
        return params


def stack_params(agents: list["PpoAgent"]) -> PolicyParams:
    """A stacked (N, P) policy holding the agents' parameters: each agent's
    ``params`` is a view of its row, so a change made in place on either side
    shows on the other. When the agents already are the rows of one stacked
    policy, in this order (an earlier call stacked them and none was rebound
    since), that policy is returned as it is. Otherwise the vectors are copied
    into a new buffer and the agents are rebound to its rows, so an episode
    stacks once, at its start, and never mid-episode."""
    policy = agents[0].params.stacked_row[0]
    if policy is not None and [agent.params.stacked_row for agent in agents] == [
        (policy, n) for n in range(len(policy.flat))
    ]:
        return policy
    layer_sizes = agents[0].params.layer_sizes
    policy = PolicyParams.from_flat(np.stack([a.params.flat for a in agents]), layer_sizes)
    for n, (agent, row) in enumerate(zip(agents, policy.flat)):
        agent.params = PolicyParams.from_flat(row, layer_sizes)
        agent.params.__dict__["stacked_row"] = (policy, n)
    return policy


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_policy_params(
    obs_dim: int, rng: np.random.Generator, hidden: tuple[int, int] = (64, 64)
) -> PolicyParams:
    """Glorot-uniform trunk; the mean head is scaled down so the initial
    action mean sits near the middle of the effort range for any input."""
    h1, h2 = hidden
    layer_sizes = (obs_dim, h1, h2)
    params = PolicyParams.from_flat(np.zeros(_layout(layer_sizes)[1]), layer_sizes)
    params.w1 = _glorot(rng, h1, obs_dim)
    params.w2 = _glorot(rng, h2, h1)
    params.w_mean = 0.01 * _glorot(rng, 1, h2)[0]
    params.w_value = _glorot(rng, 1, h2)[0]
    return params


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _forward_batch(params: PolicyParams, obs: np.ndarray, e_max: float):
    """Vectorized forward pass with the activations needed for backprop.

    One agent's (rows, obs_dim) batch gives (rows,) means and values; a
    stacked (N, P) policy with (N, rows, obs_dim) observations gives (N, rows),
    each agent's row computed as in its own batch."""
    # each bias add and tanh runs in place on the fresh product: the same
    # float operations as ``tanh(x @ w.T + b)``, without two temporaries
    h1 = obs @ np.swapaxes(params.w1, -1, -2)
    h1 += params.b1[..., None, :]
    np.tanh(h1, out=h1)
    h2 = h1 @ np.swapaxes(params.w2, -1, -2)
    h2 += params.b2[..., None, :]
    np.tanh(h2, out=h2)
    mean_in = (h2 @ params.w_mean[..., None])[..., 0]
    mean_in += params.b_mean[..., None]
    mean = e_max * _sigmoid(mean_in)
    value = (h2 @ params.w_value[..., None])[..., 0]
    value += params.b_value[..., None]
    return mean, value, h1, h2


def stacked_forward(policy: PolicyParams, obs: np.ndarray, e_max: float):
    """Action means and values of N agents in one forward: a stacked (N, P)
    policy, and row n of the (N, obs_dim) ``obs`` is agent n's observation.
    Returns two (N,) arrays."""
    means, values, _, _ = _forward_batch(policy, obs[:, None, :], e_max)
    return means[:, 0], values[:, 0]


def act(policy: PolicyParams, obs: np.ndarray, rngs: list, e_max: float):
    """Sample one step of N agents from a stacked (N, P) policy, agent n at
    observation row ``obs[n]`` drawing from ``rngs[n]``, in agent order.

    Returns (efforts, (raws, log_probs, values, means)), each of length N:
    the raw Gaussian draws clipped into [0, e_max], then the draws, their
    log-probabilities, the value estimates and the action means."""
    means, values = stacked_forward(policy, obs, e_max)
    std = np.exp(policy.log_std)
    if (std <= 0).any():
        raise ValueError(f"std must be positive, got {float(np.min(std))}")
    # ``gaussian_log_prob``'s formula on Python floats, one agent at a time:
    # their ``**`` squares with libm's pow, which differs from NumPy's array
    # square in the last bit of about 1 in 1000 draws, and stored
    # log-probabilities steer every later update. Only ``log(std)`` is one
    # array call over the N agents: it is bitwise equal to the scalar call.
    mean_list, std_list, log_std_list = means.tolist(), std.tolist(), np.log(std).tolist()
    raws = [rng.normal(m, s) for rng, m, s in zip(rngs, mean_list, std_list)]
    log_probs = [
        -0.5 * ((r - m) / s) ** 2 - log_s - 0.5 * LOG_2PI
        for r, m, s, log_s in zip(raws, mean_list, std_list, log_std_list)
    ]
    efforts = np.array([min(max(raw, 0.0), e_max) for raw in raws])
    return efforts, (raws, log_probs, values, means)


def gaussian_log_prob(x, mean, std):
    return -0.5 * ((x - mean) / std) ** 2 - np.log(std) - 0.5 * LOG_2PI


def gae_advantages(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
    last_value: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets.

    Episode ends inside the batch reset the bootstrap to zero; a batch cut
    mid-episode bootstraps its tail from ``last_value``. With lam = 1 this
    reduces to the discounted Monte-Carlo return minus the value baseline.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    n = len(rewards)
    advantages = np.zeros(n)
    running = 0.0
    next_value = last_value
    for t in range(n - 1, -1, -1):
        alive = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * alive - values[t]
        running = delta + gamma * lam * alive * running
        advantages[t] = running
        next_value = values[t]
    return advantages, advantages + values


class Rollout:
    """The population's steps since the last update, S at most: agent n's
    batch is row n of ``obs`` (N, S, obs_dim) and of the (N, S) ``raws``,
    ``log_probs``, ``values``, ``means`` and ``rewards``, and all share
    ``dones`` (S,). ``appended`` counts every step appended."""

    def __init__(self, n_agents: int, obs_dim: int, steps: int):
        self.obs = np.empty((n_agents, steps, obs_dim))
        self.columns = np.empty((5, n_agents, steps))
        self.raws, self.log_probs, self.values, self.means, self.rewards = self.columns
        self.dones = np.empty(steps, dtype=bool)
        self.size = self.appended = 0

    def __len__(self):
        return self.size

    def append(self, obs, raws, log_probs, values, means, rewards, done) -> bool:
        """Store one step: (N, obs_dim) observations, N entries of each (N, S)
        field and the done flag. Returns whether the buffer is now full."""
        self.obs[:, self.size] = obs
        self.columns[:, :, self.size] = raws, log_probs, values, means, rewards
        self.dones[self.size] = done
        self.size += 1
        self.appended += 1
        return self.size == len(self.dones)

    def reset(self) -> None:
        self.size = 0

    def batch(self, n: int, gamma: float, lam: float, std: float, last_value: float = 0.0) -> dict:
        """Agent n's PPO batch; its stored columns are views into the buffer."""
        rows, dones = (n, slice(0, self.size)), self.dones[: self.size]
        advantages, returns = gae_advantages(
            self.rewards[rows], self.values[rows], dones, gamma, lam, last_value
        )
        return {
            "obs": self.obs[rows],
            "raw_actions": self.raws[rows],
            "old_log_probs": self.log_probs[rows],
            "old_means": self.means[rows],
            "old_std": float(std),
            "advantages": advantages,
            "returns": returns,
        }


def ppo_loss_and_grads(
    params: PolicyParams,
    obs: np.ndarray,
    raw_actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    hyper: PpoHyper,
    e_max: float,
    grads: PolicyParams | None = None,
) -> tuple[float, PolicyParams, dict]:
    """Total PPO loss and its analytic gradient. The gradient is written into
    ``grads`` (every entry is overwritten), or into a fresh buffer of
    ``params.flat``'s layout when it is None, and returned wrapped as a
    PolicyParams, so ``grads.flat`` lines up with ``params.flat`` entry by
    entry.

    Loss = -mean(min(ratio*A, clip(ratio)*A))
           + vf_coeff * mean(min((V - R)^2, vf_clip))
           - entropy_coeff * gaussian entropy.
    """
    n = len(obs)
    mean, value, h1, h2 = _forward_batch(params, obs, e_max)
    std = np.exp(params.log_std)

    log_probs = gaussian_log_prob(raw_actions, mean, std)
    ratio = np.exp(log_probs - old_log_probs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - hyper.clip, 1.0 + hyper.clip) * advantages
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -float(np.mean(surrogate))

    vf_err = value - returns
    vf_sq = vf_err**2
    vf_loss = float(np.mean(np.minimum(vf_sq, hyper.vf_clip)))

    entropy = params.log_std + 0.5 * (LOG_2PI + 1.0)
    loss = policy_loss + hyper.vf_coeff * vf_loss - hyper.entropy_coeff * entropy

    # --- backward ---
    take_unclipped = unclipped <= clipped
    d_log_probs = -(1.0 / n) * advantages * ratio * take_unclipped
    if grads is None:
        grads = PolicyParams.from_flat(np.empty_like(params.flat), params.layer_sizes)
    d_mean = d_log_probs * (raw_actions - mean) / std**2
    grads.log_std = np.sum(d_log_probs * (((raw_actions - mean) / std) ** 2 - 1.0))
    grads.log_std -= hyper.entropy_coeff

    d_value = hyper.vf_coeff * (2.0 / n) * vf_err * (vf_sq < hyper.vf_clip)

    d_mean_raw = d_mean * mean * (1.0 - mean / e_max)  # sigmoid head chain rule
    np.matmul(h2.T, d_mean_raw, out=grads.w_mean)
    grads.b_mean = np.sum(d_mean_raw)
    np.matmul(h2.T, d_value, out=grads.w_value)
    grads.b_value = np.sum(d_value)

    # d_z2 = (outer(d_mean_raw, w_mean) + outer(d_value, w_value)) * (1 - h2**2)
    # and d_z1 = (d_z2 @ w2) * (1 - h1**2), in place over this call's own
    # activations, which are not read again
    d_z2 = d_mean_raw[:, None] * params.w_mean
    d_z2 += d_value[:, None] * params.w_value
    d_z2 *= np.subtract(1.0, np.square(h2, out=h2), out=h2)
    np.matmul(d_z2.T, h1, out=grads.w2)
    np.sum(d_z2, axis=0, out=grads.b2)
    d_z1 = d_z2 @ params.w2
    d_z1 *= np.subtract(1.0, np.square(h1, out=h1), out=h1)
    np.matmul(d_z1.T, obs, out=grads.w1)
    np.sum(d_z1, axis=0, out=grads.b1)

    clip_fraction = float(np.mean(~take_unclipped))
    stats = {
        "policy_loss": policy_loss,
        "vf_loss": vf_loss,
        "entropy": float(entropy),
        "clip_fraction": clip_fraction,
    }
    return float(loss), grads, stats


def _gaussian_kl(mean_old, std_old, mean_new, std_new) -> float:
    """Mean KL(old || new) of diagonal Gaussians over a batch."""
    kl = (
        np.log(std_new / std_old)
        + (std_old**2 + (mean_old - mean_new) ** 2) / (2.0 * std_new**2)
        - 0.5
    )
    return float(np.mean(kl))


class AdamState:
    def __init__(self, template: np.ndarray):
        self.m = np.zeros_like(template)
        self.v = np.zeros_like(template)
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """Update ``flat`` in place:
        m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g**2,
        flat -= lr*m_hat / (sqrt(v_hat) + eps), each operation in this order,
        written into the moments and two scratch vectors."""
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        step, denom = np.empty_like(grad), np.empty_like(grad)
        self.m *= beta1
        self.m += np.multiply(1.0 - beta1, grad, out=step)
        self.v *= beta2
        self.v += np.multiply(1.0 - beta2, np.square(grad, out=step), out=step)
        np.sqrt(np.divide(self.v, 1.0 - beta2**self.t, out=denom), out=denom)
        denom += eps
        np.multiply(lr, np.divide(self.m, 1.0 - beta1**self.t, out=step), out=step)
        step /= denom
        flat -= step


def ppo_update(
    params: PolicyParams,
    batch: dict,
    hyper: PpoHyper,
    e_max: float,
    rng: np.random.Generator,
    adam: AdamState | None = None,
) -> tuple[PolicyParams, AdamState, dict]:
    """One PPO update: Adam over shuffled minibatches for several epochs,
    early-stopping the epoch loop once the mean KL overshoots 1.5x the target.
    Advantages are normalized to zero mean / unit variance over the batch.
    Works on a copy: the ``params`` passed in are never changed.
    """
    n = len(batch["obs"])
    if n == 0:
        raise ValueError("empty batch")
    adv = batch["advantages"]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    params = PolicyParams.from_flat(params.flat.copy(), params.layer_sizes)
    if adam is None:
        adam = AdamState(params.flat)
    grads = PolicyParams.from_flat(np.empty_like(params.flat), params.layer_sizes)
    columns = (batch["obs"], batch["raw_actions"], batch["old_log_probs"], adv, batch["returns"])

    epochs_run = 0
    mean_kl = 0.0
    last_stats: dict = {}
    for _ in range(hyper.epochs_per_update):
        # each column gathered once per epoch; minibatches are contiguous slices
        order = rng.permutation(n)
        shuffled = [column[order] for column in columns]
        for start in range(0, n, hyper.minibatch_size):
            rows = slice(start, start + hyper.minibatch_size)
            loss, grads, last_stats = ppo_loss_and_grads(
                params, *(column[rows] for column in shuffled), hyper, e_max, grads
            )
            if not np.isfinite(grads.flat).all():
                bad = int(np.sum(~np.isfinite(grads.flat)))
                raise UpdateDivergedError(
                    f"non-finite gradients in PPO update: {bad} entries, loss={loss}"
                )
            adam.step(params.flat, grads.flat, hyper.learning_rate)
        epochs_run += 1
        new_mean, _, _, _ = _forward_batch(params, batch["obs"], e_max)
        mean_kl = _gaussian_kl(
            batch["old_means"], batch["old_std"], new_mean, np.exp(params.log_std)
        )
        if mean_kl > 1.5 * hyper.kl_target:
            break

    stats = dict(last_stats)
    stats.update({"mean_kl": mean_kl, "epochs_run": epochs_run})
    return params, adam, stats


class PpoAgent:
    """One independent learner. Holds its own parameters, optimizer state and
    random stream; never reads another agent's data."""

    def __init__(
        self,
        signal_cardinality: int,
        e_max: float,
        hyper: PpoHyper,
        rng: np.random.Generator,
        hidden: tuple[int, int] = (64, 64),
    ):
        self.g = signal_cardinality
        self.e_max = e_max
        self.hyper = hyper
        self.rng = rng
        self.params = init_policy_params(signal_cardinality + 2, rng, hidden)
        self.adam: AdamState | None = None

    @property
    def std(self) -> float:
        return float(np.exp(self.params.log_std))

    def forward(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Action means and value estimates of a (rows, obs_dim) observation batch."""
        means, values, _, _ = _forward_batch(self.params, obs, self.e_max)
        return means, values

    def act(self, obs: np.ndarray) -> tuple[float, tuple[float, float, float, float]]:
        """Sample this agent's effort for its observation row. Returns
        (effort, (raw, log_prob, value, mean)): the raw Gaussian draw, its
        log-probability, the value estimate and the action mean; the effort is
        the raw draw clipped into [0, e_max]. It is the population ``act``
        over this agent alone."""
        policy = PolicyParams.from_flat(self.params.flat[None], self.params.layer_sizes)
        efforts, steps = act(policy, obs[None], [self.rng], self.e_max)
        return float(efforts[0]), tuple(float(column[0]) for column in steps)

    def update(self, rollout: Rollout, n: int, last_value: float = 0.0) -> dict:
        """One PPO update on row ``n`` of ``rollout``, written into ``params`` in
        place (never rebound), so a stacked policy holding them acts on it."""
        batch = rollout.batch(n, self.hyper.gamma, self.hyper.gae_lambda, self.std, last_value)
        updated, self.adam, stats = ppo_update(
            self.params, batch, self.hyper, self.e_max, self.rng, self.adam
        )
        self.params.flat[...] = updated.flat
        return stats


def save_checkpoint(path, agents: list[PpoAgent]) -> None:
    """Write all agents' parameters and their effort range as a versioned flat
    little-endian record."""
    if not agents:
        raise ValueError("no agents to save")
    g, e_max = agents[0].g, agents[0].e_max
    layer_sizes = agents[0].params.layer_sizes
    for agent in agents:
        if agent.g != g or agent.params.layer_sizes != layer_sizes:
            raise ValueError("agents disagree on architecture")
        if agent.e_max != e_max:
            raise ValueError("agents disagree on the effort range")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIII", CHECKPOINT_VERSION, g, len(agents), len(layer_sizes)))
        fh.write(struct.pack(f"<{len(layer_sizes)}I", *layer_sizes))
        fh.write(struct.pack("<d", e_max))
        for agent in agents:
            fh.write(agent.params.flat.astype("<f8").tobytes())


def _read_exactly(fh, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated checkpoint: {what}")
    return data


def load_checkpoint(
    path, e_max: float | None = None, hyper: PpoHyper | None = None
) -> list[PpoAgent]:
    """Rebuild agents from a checkpoint (fresh optimizer state and RNGs), at
    the effort range it records. An ``e_max`` that differs from the recorded
    one is an error; a version-1 checkpoint records none and loads at
    ``e_max``, 1.0 when it is None."""
    hyper = hyper if hyper is not None else PpoHyper()
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a policy checkpoint")
        version, g, n_agents, n_sizes = struct.unpack("<IIII", _read_exactly(fh, 16, "header"))
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        if n_sizes != 3:
            raise ValueError(f"expected 3 layer sizes, got {n_sizes}")
        layer_sizes = struct.unpack("<3I", _read_exactly(fh, 12, "layer sizes"))
        if layer_sizes[0] != g + 2:
            raise ValueError(
                f"input width {layer_sizes[0]} does not match signal cardinality {g} + 2"
            )
        if version == 1:
            e_max = 1.0 if e_max is None else e_max
        else:
            (stored,) = struct.unpack("<d", _read_exactly(fh, 8, "effort range"))
            if not (math.isfinite(stored) and stored > 0):
                raise ValueError(f"invalid effort range {stored} in {path}")
            if e_max is not None and e_max != stored:
                raise ValueError(f"{path} was trained at e_max={stored}, not at e_max={e_max}")
            e_max = stored
        _, flat_len = _layout(layer_sizes)
        agents = []
        for i in range(n_agents):
            raw = _read_exactly(fh, 8 * flat_len, f"agent {i}")
            flat = np.frombuffer(raw, dtype="<f8").astype(float)
            agent = PpoAgent(g, e_max, hyper, np.random.default_rng(0), hidden=layer_sizes[1:])
            agent.params = PolicyParams.from_flat(flat, layer_sizes)
            agents.append(agent)
    return agents
